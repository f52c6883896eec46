"""Smoke tests of the fast demos: each runs to the end and prints its headers.

``mise_benchmark.py`` takes about a minute and is left out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, headers", [
    ("normality_demo.py", ["{'kind': 'edf'}: mean=", "{'kind': 'szasz', 'm': 89}: mean=",
                           "{'kind': 'kernel', 'h': 0.05}: mean=",
                           "Kolmogorov-Smirnov distance to the reference normal"]),
    ("fit_and_compare.py", ["sample of n=50 from", "estimates of F(x):", "median estimates",
                            "integrated squared error against the true model:"]),
    ("asymptotics_tour.py", ["exact local deficiency at n=500"]),
    ("theory_suite.py", ["overall: all passed"]),
])
def test_demo_runs(script, headers, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    for header in headers:
        assert header in out, header
