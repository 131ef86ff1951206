"""Count EASY refusals that a same-cycle refusal of the same shape answers.

    python3 benchmarks/refusal_shapes.py [--seeds 7 11 21]

Within one scheduling cycle nothing frees capacity between backfill
attempts, so a refusal of ``Jobspec.shape`` S for duration d at ``now``
would answer every later attempt that cycle with shape S and a duration of
at least d.  This wraps ``Traverser.allocate`` and ``EasyBackfill.cycle``
from outside the program, replays the ledger's two EASY workloads (the full
trace, then its first half, as the ledger does) and prints per workload and
seed how many in-cycle ``allocate`` refusals an earlier one would have
answered, and the allocate time those answered refusals took.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "ledger"), os.path.join(HERE, os.pardir, "src")]

import workloads  # noqa: E402  (the ledger's workloads, after the path)
from repro.match import Traverser  # noqa: E402
from repro.sched.queue import EasyBackfill  # noqa: E402

WORKLOADS = ("backlog_easy_1008", "guarded_easy_64")


class Count:
    """In-cycle refusals, and those an earlier same-cycle one answered."""

    def __init__(self) -> None:
        self.refusals = 0
        self.answered = 0
        self.answered_s = 0.0
        #: (shape, at) -> shortest refused duration, this cycle; None
        #: outside a cycle
        self.cycle = None

    def install(self):
        allocate, cycle = Traverser.allocate, EasyBackfill.cycle

        def counted_cycle(policy, *args, **kwargs):
            self.cycle = {}
            try:
                return cycle(policy, *args, **kwargs)
            finally:
                self.cycle = None

        def counted_allocate(traverser, jobspec, at=0):
            start = perf_counter()
            alloc = allocate(traverser, jobspec, at)
            spent = perf_counter() - start
            if alloc is None and self.cycle is not None:
                self.refusals += 1
                key = (jobspec.shape, at)
                shortest = self.cycle.get(key)
                if shortest is not None and shortest <= jobspec.duration:
                    self.answered += 1
                    self.answered_s += spent
                else:
                    self.cycle[key] = jobspec.duration
            return alloc

        Traverser.allocate = counted_allocate
        EasyBackfill.cycle = counted_cycle
        return lambda: (setattr(Traverser, "allocate", allocate),
                        setattr(EasyBackfill, "cycle", cycle))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 21])
    args = parser.parse_args()
    print("workload                 seed  answered  refusals  share   allocate_s")
    with tempfile.TemporaryDirectory() as tmpdir:
        for name in WORKLOADS:
            for seed in args.seeds:
                count = Count()
                restore = count.install()
                try:
                    record = workloads.run(
                        name, workloads.Context(seed=seed, tmpdir=tmpdir)
                    )
                finally:
                    restore()
                assert not record["failures"], record["failures"]
                print(f"{name:24} {seed:4d}  {count.answered:8d}  "
                      f"{count.refusals:8d}  "
                      f"{count.answered / max(count.refusals, 1):5.1%}  "
                      f"{count.answered_s:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
