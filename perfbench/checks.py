"""Checks of hexrep's printed output against the oracle.

Each check takes the argv of one command and the text it printed, and
returns a list of problems (empty when the output is right).  Nothing is
compared with a saved copy of earlier output: values come from the oracle
or from properties the method must have.
"""

from __future__ import annotations

import json
from fractions import Fraction

from sympy import divisor_sigma

DOCUMENTED = {
    "s14-theorem": 7,
    "s18-theorem": 9,
    "s22-theorem": 11,
    "rho-star-6": 6,
    "rho-star-8": 8,
    "rho-star-10": 10,
}
# s-theorem lhs - count = C * (printed rho* - implied rho*): both reports
# share the cusp part, so their differences are proportional.
THEOREM_OF_RHO = {
    6: ("s14-theorem", Fraction(3, 7)),
    8: ("s18-theorem", Fraction(27, 809)),
    10: ("s22-theorem", Fraction(3, 1847)),
}
IDENTITY_COUNT = 25


def _option(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _parse_values(text: str, fmt: str) -> list[tuple[int, Fraction]]:
    if fmt == "json":
        return [(row["n"], Fraction(str(row["value"]))) for row in json.loads(text)]
    lines = text.splitlines()
    if fmt == "csv":
        if not lines or lines[0] != "n,value":
            raise ValueError("missing CSV header")
        lines = lines[1:]
        return [(int(n), Fraction(v)) for n, v in (line.split(",") for line in lines)]
    return [(int(n), Fraction(v)) for n, v in (line.split() for line in lines)]


def _requested_ns(argv: list) -> list[int]:
    spec = _option(argv, "--n")
    lo, _, hi = spec.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


class Checker:
    def __init__(self, oracle):
        self.oracle = oracle
        size = oracle.size
        self.sigma11_mod691 = [0] + [int(divisor_sigma(n, 11)) % 691 for n in range(1, size + 1)]

    def check(self, argv: list, rc: int, out: str) -> list[str]:
        if argv[0] == "verify":
            return self._check_verify(argv, rc, out)
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            rows = _parse_values(out, _option(argv, "--format", "table"))
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable output: {exc}"]
        if [n for n, _ in rows] != _requested_ns(argv):
            return ["printed n values differ from the requested range"]
        problems = []
        for n, value in rows:
            expected = self._expected_value(argv, n)
            if value != expected:
                problems.append(f"n={n}: printed {value}, expected {expected}")
            if argv[0] == "tau" and (value - self.sigma11_mod691[n]) % 691:
                problems.append(f"tau({n}) = {value} is not sigma_11({n}) mod 691")
        return problems

    def _expected_value(self, argv: list, n: int):
        if argv[0] == "s2k":
            return self.oracle.s2k[int(_option(argv, "--k"))][n]
        if argv[0] == "tau":
            return self.oracle.tau[n]
        return self.oracle.lattice[argv[1]][n]

    # -- verify -----------------------------------------------------------

    def _check_verify(self, argv: list, rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"verify exit code {rc}"]
        nmax = int(_option(argv, "--nmax"))
        fmt = _option(argv, "--format", "table")
        try:
            if fmt == "table":
                return self._check_verify_table(out, nmax)
            if fmt == "json":
                return self._check_verify_json(out, nmax)
            return self._check_verify_csv(out, nmax)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparsable verify output: {exc}"]

    def _check_status(self, statuses: dict) -> list[str]:
        problems = []
        if len(statuses) != IDENTITY_COUNT:
            problems.append(f"{len(statuses)} identities reported, expected {IDENTITY_COUNT}")
        for name, ok in statuses.items():
            if ok == (name in DOCUMENTED):
                want = "a mismatch" if name in DOCUMENTED else "a match"
                problems.append(f"{name}: expected {want}")
        return problems

    def _check_documented(self, name: str, entries: list) -> list[str]:
        """entries: (n, lhs, rhs) of a documented report, mismatching ones at least."""
        problems = []
        k_or_ell = DOCUMENTED[name]
        for n, lhs, rhs in entries:
            if name.startswith("s"):
                if rhs != self.oracle.s2k[k_or_ell][n]:
                    problems.append(f"{name} n={n}: count side {rhs} is not s_{2 * k_or_ell}(n)")
            elif lhs != self.oracle.rho_star(k_or_ell, n):
                problems.append(f"{name} n={n}: printed rho* {lhs} differs from the definition")
        return problems

    def _check_proportional(self, sides: dict) -> list[str]:
        """sides[name] = {n: (lhs, rhs)}; the theorem and rho* differences must be proportional."""
        problems = []
        for ell, (theorem, scale) in THEOREM_OF_RHO.items():
            rho = sides[f"rho-star-{ell}"]
            th = sides[theorem]
            if set(rho) != set(th):
                problems.append(f"{theorem} and rho-star-{ell} mismatch at different n")
                continue
            for n, (lhs, rhs) in rho.items():
                if th[n][0] - th[n][1] != scale * (lhs - rhs):
                    problems.append(f"{theorem} n={n}: difference not {scale} x rho-star-{ell}'s")
        return problems

    def _check_verify_table(self, out: str, nmax: int) -> list[str]:
        statuses, first = {}, {}
        for line in out.splitlines():
            if line.startswith(" ") or line.startswith("verification:"):
                continue
            name, _, rest = line.partition(": ")
            statuses[name] = rest.startswith(f"ok (n=1..{nmax})")
            if rest.startswith("MISMATCH at n="):
                fields = dict(f.split("=", 1) for f in rest.split() if "=" in f)
                first[name] = (int(fields["n"].rstrip(":")), Fraction(fields["lhs"]), Fraction(fields["rhs"]))
        problems = self._check_status(statuses)
        if not out.rstrip().endswith(f"verification: PASS ({IDENTITY_COUNT} identities, strict=False)"):
            problems.append("missing PASS verdict")
        for name in DOCUMENTED:
            if name in first:
                problems += self._check_documented(name, [first[name]])
        for name in ("s14-theorem", "s18-theorem", "s22-theorem"):
            count = 6 * DOCUMENTED[name]
            if name in first and (first[name][0], first[name][2]) != (1, count):
                problems.append(f"{name}: expected the first mismatch at n=1 with count side {count}")
        return problems

    def _check_verify_json(self, out: str, nmax: int) -> list[str]:
        reports = json.loads(out)
        statuses = {r["name"]: r["status"] == "match" and not r["mismatches"] for r in reports}
        problems = self._check_status(statuses)
        sides = {}
        for r in reports:
            if r["n_max"] != nmax:
                problems.append(f"{r['name']}: n_max {r['n_max']}")
            entries = [(m["n"], Fraction(str(m["lhs"])), Fraction(str(m["rhs"]))) for m in r["mismatches"]]
            if r["name"] in DOCUMENTED:
                problems += self._check_documented(r["name"], entries)
                sides[r["name"]] = {n: (lhs, rhs) for n, lhs, rhs in entries}
        if len(sides) == len(DOCUMENTED):
            problems += self._check_proportional(sides)
        return problems

    def _check_verify_csv(self, out: str, nmax: int) -> list[str]:
        blocks: dict = {}
        name = None
        for line in out.splitlines():
            if line.startswith("# identity: "):
                name = line[len("# identity: "):]
                blocks[name] = {}
            elif line != "n,lhs,rhs,match":
                n, lhs, rhs, match = line.split(",")
                blocks[name][int(n)] = (Fraction(lhs), Fraction(rhs), match == "True")
        statuses = {nm: all(m for _, _, m in rows.values()) for nm, rows in blocks.items()}
        problems = self._check_status(statuses)
        for nm, rows in blocks.items():
            if sorted(rows) != list(range(1, nmax + 1)):
                problems.append(f"{nm}: rows do not cover n=1..{nmax}")
                continue
            if any(match != (lhs == rhs) for lhs, rhs, match in rows.values()):
                problems.append(f"{nm}: match column disagrees with the values")
            if nm in DOCUMENTED:
                problems += self._check_documented(nm, [(n, l, r) for n, (l, r, _) in rows.items()])
                continue
            for n, (lhs, rhs, _) in rows.items():
                expected = self.oracle.identity_sides(nm, n)
                if expected is None:
                    problems.append(f"{nm}: not covered by the oracle")
                    break
                if (lhs, rhs) != expected:
                    problems.append(f"{nm} n={n}: ({lhs}, {rhs}) != oracle {expected}")
            if nm == "tau-eq":
                problems += [f"tau({n}) breaks the 691 congruence" for n, (lhs, _, _) in rows.items()
                             if (lhs - self.sigma11_mod691[n]) % 691]
        sides = {nm: {n: (l, r) for n, (l, r, _) in blocks[nm].items()} for nm in DOCUMENTED if nm in blocks}
        if len(sides) == len(DOCUMENTED):
            problems += self._check_proportional(sides)
        return problems
