#!/usr/bin/env python3
"""In-process stage table of ``moricensus verify`` on the shipped inputs.

Each stage of ``audit.run_full_verification()`` is timed on its own,
on inputs built before the timer starts, and so is the whole run:

  declared load    ``load_declared`` on the shipped config text
  claims parse     ``parse_claims`` on the shipped claims text
  claims evaluate  ``evaluate_claims`` on the parsed claims
  families         the three family generators, 347 models
  census report    ``build_census_report`` on those models
  closure oracle   one closure per census model, 347 in all, and the
                   union of their classes
  closure, no moves  ``closure(t, None)`` on the same 347 triples: the
                   engine's fixed cost per call
  full run         ``run_full_verification()``, which reads both files

A stage's time is the best of --rounds rounds of --number calls, per
call.  A second table divides stage times by the units one full run
works through:

  closure call     closure oracle / closures (347)
  expansion step   (closure oracle - closure, no moves) / the steps
                   summed from the oracle's results (4,084): the cost
                   of a step, with its share of the union, beyond the
                   fixed cost of its call
  claim parsed     claims parse / claims (22)
  census model     full run / census models (347)

The last table lists the records one full run constructs, per record
class: 748 on the shipped inputs, of which 348 are ``RegularModel``s,
347 ``ClosureResult``s and 45 ``Verdict``s, one per ``census.*`` count
and per claim line.  The census's triples are plain tuples, so
no ``Triple`` is among them.  The end-to-end benchmark is
``perfbench/run.py``.

Usage:
    python benchmarks/bench_verify.py [--rounds 5] [--number 100]
"""

import argparse
import time
from collections import Counter

from moricensus import audit
from moricensus._record import Record
from moricensus.claims import evaluate_claims, parse_claims
from moricensus.closure import closure
from moricensus.cones import build_census_report
from moricensus.declared import default_declared_text, load_declared
from moricensus.families import (
    family_nondegenerate,
    family_one_degenerate,
    family_two_degenerate,
)


def families():
    return family_nondegenerate() + family_one_degenerate() + family_two_degenerate()


def stages():
    """(name, call) for each stage, each call on prebuilt inputs."""
    declared_text = default_declared_text()
    claims_text = audit.default_claims_text()
    declared = load_declared(declared_text)
    claims = parse_claims(claims_text)
    regular = families()
    return [
        ("declared load", lambda: load_declared(declared_text)),
        ("claims parse", lambda: parse_claims(claims_text)),
        ("claims evaluate", lambda: evaluate_claims(claims)),
        ("families", families),
        ("census report", lambda: build_census_report(regular, declared)),
        ("closure oracle", lambda: audit._closure_oracle_matches(regular)),
        ("closure, no moves", lambda: [closure(r.triple, None) for r in regular]),
        ("full run", audit.run_full_verification),
    ]


def unit_costs(times: dict) -> list:
    """(unit, seconds per unit, units per full run) from stage times."""
    claims = parse_claims(audit.default_claims_text())
    models = families()
    steps = sum(closure(r.triple, tuple).expansion_steps for r in models)
    oracle = times["closure oracle"]
    return [
        ("closure call", oracle / len(models), len(models)),
        ("expansion step", (oracle - times["closure, no moves"]) / steps, steps),
        ("claim parsed", times["claims parse"] / len(claims), len(claims)),
        ("census model", times["full run"] / len(models), len(models)),
    ]


def best_of(call, rounds, number):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def record_counts() -> Counter:
    """Records one ``run_full_verification()`` constructs, by class name."""
    counts = Counter()
    inits = {cls: cls.__init__ for cls in Record.__subclasses__()}

    def counting(cls, init):
        def __init__(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)
        return __init__

    try:
        for cls, init in inits.items():
            cls.__init__ = counting(cls, init)
        audit.run_full_verification()
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--number", type=int, default=100)
    args = parser.parse_args()

    times = {name: best_of(call, args.rounds, args.number)
             for name, call in stages()}
    full = times["full run"]
    print(f"verify stages, best of {args.rounds} x {args.number}")
    print(f"  {'stage':<18} {'ms':>8} {'of full':>8}")
    for name, seconds in times.items():
        print(f"  {name:<18} {seconds * 1e3:>8.3f} {seconds / full:>8.1%}")
    print("cost per unit")
    print(f"  {'unit':<18} {'us':>8} {'count':>8}")
    for name, seconds, count in unit_costs(times):
        print(f"  {name:<18} {seconds * 1e6:>8.3f} {count:>8}")
    counts = record_counts()
    print("records built by one full run")
    for name, count in counts.most_common():
        print(f"  {name:<18} {count:>8}")
    print(f"  {'total':<18} {sum(counts.values()):>8}")


if __name__ == "__main__":
    main()
