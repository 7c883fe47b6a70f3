"""Soundness checks must survive `python -O`, which strips `assert`."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_package():
    found = []
    for path in sorted((SRC / "pscert").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under -O: {found}"


def test_cofactor_check_raises_under_optimize():
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from pscert import membership
        from pscert.errors import VerificationFailed

        assert False  # stripped: proves the interpreter runs with -O
        membership._solve_exact = lambda matrix, ncols: [Fraction(1)] * ncols
        p2 = membership.power_sum(3, 2)
        try:
            membership.graded_membership(p2 * p2, [p2])
        except VerificationFailed:
            sys.exit(0)
        sys.exit(3)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
