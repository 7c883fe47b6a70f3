"""Soundness checks must survive `python -O`, which strips `assert`, and
the package must not lean on sympy or mpmath, which only the tests use."""

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


def _is_trigonometry(name: str) -> bool:
    return name in ("icos", "isin", "mpi_sin") or name.startswith("mpi_cos")


def test_no_trigonometry_outside_exactnum():
    # segment roots live in rho = |z|^2 alone, so a second, angular root
    # path would show up as an import of cosine or sine; exactnum keeps
    # icos and isin only for the tests and the benchmark's counts
    found = []
    for path in sorted((SRC / "pscert").rglob("*.py")):
        if path.name == "exactnum.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if _is_trigonometry(name)]
    assert not found, f"trigonometry outside exactnum: {found}"


def test_package_does_not_import_sympy():
    # sympy is a test oracle only; the certifier must not depend on it
    found = []
    for path in sorted((SRC / "pscert").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "sympy"]
    assert not found, f"sympy imported by the package: {found}"


def test_package_imports_mpmath_only_for_trigonometry():
    # the interval core is stdlib arithmetic; only icos and isin, which no
    # certifying path takes, borrow mpmath, inside their own bodies.  No
    # module imports random either: nothing the package computes depends
    # on a draw
    found = []
    for path in sorted((SRC / "pscert").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "exactnum.py":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ("icos",
                                                                   "isin"):
                    allowed |= {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "mpmath"
                      and id(node) not in allowed
                      or name.split(".")[0] == "random"]
    assert not found, f"mpmath or random imported by the package: {found}"


def test_exactnum_imports_only_errors_from_the_package():
    # the interval core stands alone: a checker can take exactnum and
    # errors without the polynomial layers
    tree = ast.parse((SRC / "pscert" / "exactnum.py").read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pscert"):
            package.append((node.level, node.module))
        elif isinstance(node, ast.Import):
            package += [(0, alias.name) for alias in node.names
                        if alias.name.split(".")[0] == "pscert"]
    assert package == [(1, "errors")]


def test_precision_cap_read_once_in_analytic():
    # every escalation in analytic runs through _escalate, the only place
    # that compares with the cap
    tree = ast.parse((SRC / "pscert" / "analytic.py").read_text())
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "MAX_PREC"
             or isinstance(node, ast.Name) and node.id == "MAX_PREC"]
    (escalate,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   and fn.name == "_escalate"]
    inside = {id(node) for node in ast.walk(escalate)}
    assert len(reads) == 1 and id(reads[0]) in inside, \
        [node.lineno for node in reads]


def test_certifying_imports_no_mpmath():
    # a fresh interpreter: the CLI, the pipelines and a full a1 certificate
    # leave mpmath unimported
    script = textwrap.dedent("""
        import sys
        import pscert.cli, pscert.criteria, pscert.membership, pscert.pipeline
        assert pscert.pipeline.certify_a1(8).conclusive
        print(sorted(m for m in sys.modules if m.split(".")[0] == "mpmath"))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
