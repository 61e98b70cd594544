"""Compare two benchmark sets: ``python perf/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of one
commit), ``B`` the candidate.  Each end-to-end metric of each workload
gets one verdict against the bound ``BENCHMARK.json`` fixes for it:

* ``ok`` — B's median is within the bound of A's, and the runs are
  tight enough to say so;
* ``regression`` — worse by more than the bound, and every run of B is
  worse than every run of A;
* ``improved`` — better by more than the bound, and every run of B is
  better than every run of A;
* ``unresolved`` — anything the runs cannot settle: a change beyond the
  bound with overlapping runs, a spread (max − min over the median) or,
  for timings, a gap between the two sets' calibration kernels wider
  than the bound.  Unresolved is not unchanged.

Per-layer metrics have no bound; they are listed with B over A.  Every
ratio is printed next to its base.  Exit status 1 on any ``regression``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf.run import declaration  # noqa: E402

#: Units whose values move with machine speed.
_TIMING_UNITS = ("s", "1/s")


def spread(samples: list[float]) -> float:
    middle = statistics.median(samples)
    return (max(samples) - min(samples)) / middle if middle else 0.0


def classify(a: list[float], b: list[float], better: str, bound: float,
             calibration_gap: float = 0.0) -> tuple[str, float]:
    """``(verdict, worsening)`` where ``worsening`` is B's median against
    A's as a share of A's, positive when B is worse."""
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new - base) / base if base else 0.0
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    shaky = calibration_gap > bound
    if worsening > bound:
        return ("regression" if all_worse and not shaky else "unresolved"), worsening
    if worsening < -bound:
        return ("improved" if all_better and not shaky else "unresolved"), worsening
    if shaky or (max(spread(a), spread(b)) > bound and not all_better):
        return "unresolved", worsening
    return "ok", worsening


def compare(base: dict, candidate: dict, declared: dict) -> tuple[list[str], bool]:
    """The report lines and whether anything regressed."""
    lines, regressed = [], False
    for name, a in base["workloads"].items():
        b = candidate["workloads"].get(name)
        if b is None:
            lines.append(f"{name}: absent from the candidate set")
            continue
        gap = abs(b["calibration_s"] - a["calibration_s"]) / a["calibration_s"]
        lines.append(f"{name}: calibration {b['calibration_s']:.4f} s over "
                     f"{a['calibration_s']:.4f} s, gap {gap:.1%}"
                     + (", noisy" if a["noisy"] or b["noisy"] else ""))
        for metric in declared["end_to_end"]:
            key, unit = metric["name"], metric["unit"]
            verdict, worsening = classify(
                a["end_to_end"][key]["samples"], b["end_to_end"][key]["samples"],
                metric["better"], metric["bound"],
                gap if unit in _TIMING_UNITS else 0.0,
            )
            regressed |= verdict == "regression"
            lines.append(
                f"  {key:12s} {verdict:10s} {b['end_to_end'][key]['median']:.6g} over "
                f"{a['end_to_end'][key]['median']:.6g} {unit} = "
                f"{worsening:+.1%} worse (bound {metric['bound']:.0%}; spreads "
                f"{spread(a['end_to_end'][key]['samples']):.1%}, "
                f"{spread(b['end_to_end'][key]['samples']):.1%})"
            )
        verdict = "regression" if b["failed_share"] > a["failed_share"] else "ok"
        regressed |= verdict == "regression"
        lines.append(f"  {'failed_share':12s} {verdict:10s} {b['failed_share']:.6g} over "
                     f"{a['failed_share']:.6g} (bound 0, absolute)")
        for metric in declared["per_layer"]:
            key = metric["name"]
            old, new = a["per_layer"][key]["value"], b["per_layer"][key]["value"]
            if not old and not new:
                continue
            ratio = f"{new / old:.3f}" if old and new is not None else "n/a"
            lines.append(f"    {key:36s} {new!s:>22s} over {old!s:>22s} "
                         f"{metric['unit']:5s} = {ratio}")
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, regressed = compare(*documents, declaration())
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
