"""``benchmarks/planted_guards.py`` plants each bug by replacing an exact
piece of source text, which must occur once in its file: an edit to an
anchored line breaks the plant, and this test says so in tier-1."""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _plants():
    path = os.path.join(REPO, "benchmarks", "planted_guards.py")
    spec = importlib.util.spec_from_file_location("planted_guards", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PLANTS, module.GUARDS


PLANTS, GUARDS = _plants()


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_every_anchor_occurs_once(name):
    _, _, edits, guards = PLANTS[name]
    assert edits and set(guards) <= set(GUARDS)
    for rel, old, _ in edits:
        with open(os.path.join(REPO, rel), encoding="utf-8") as handle:
            text = handle.read()
        assert text.count(old) == 1, f"{name}: {rel}: {old.splitlines()[0]!r}"
