"""Record the reference answer of every seed-independent operation.

    python3 perfbench/make_references.py

Runs each operation of the two workloads once, cross-checks the answers
against independent oracles, and writes `references.json` only if every
cross-check holds:

- cones and suspensions of manifolds: `cone_formula` and
  `suspension_formula` applied to `ordinary_homology` of the link (for
  integral tables: the free ranks against the rational formula);
  trivially filtered manifolds: `ordinary_homology` itself;
- F_{p^m} tables and Witt verdicts equal the Z_p ones;
- the acceptance-suite values: the Witt verdicts of criterion 4, the
  `cone_RP2` torsion and UCT violation of criterion 1, and the Witt
  bordism groups of criterion 8;
- the CLI's JSON answers agree with the library-level references.

The seeded Witt-form and bordism operations check themselves against
closed forms (see `workloads.FormOracle`) and are not recorded.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

SELF_CHECKED = ("witt/forms/", "witt/bordism/")
MANIFOLDS = {"L2_1", "L3_1", "L5_1", "RP2", "T2", "J_L3"}
CATALOG_RECIPES = {"S_RP2": "S(RP2)", "SS_RP2": "S(S_RP2)", "S_T2": "S(T2)",
                   "cone_RP2": "c(RP2)"}


def record_all():
    answers = {}
    for name in wl.WORKLOADS:
        lib, ops = wl.setup(name, None, 0)
        for op in ops:
            ans = op.fn()
            if op.key.startswith(SELF_CHECKED):
                if not op.check(ans):
                    raise AssertionError(f"{op.key}: closed-form check failed: {ans}")
                continue
            answers[op.key] = wl.plain(ans)
        print(f"{name}: {len(ops)} operations run", flush=True)
    return answers


class Oracles:
    def __init__(self):
        self.lib = wl.Library()
        self.checked = {}

    def note(self, oracle, ok, key):
        if not ok:
            raise AssertionError(f"{key}: disagrees with {oracle}")
        self.checked[oracle] = self.checked.get(oracle, 0) + 1

    def ordinary(self, name, ring):
        lib = self.lib
        return lib.ihcore.ordinary_homology(lib.build(name).complex, lib.ring(ring))

    def formula_dims(self, recipe, values, ring):
        """Field dims of a cone or suspension by the closed form, or None
        when the recipe is not a cone or suspension of a known base."""
        lib = self.lib
        recipe = CATALOG_RECIPES.get(recipe, recipe)
        kind, base = recipe[0], recipe[2:-1]
        if kind not in "cS" or recipe[1] != "(":
            return None
        if base in MANIFOLDS:
            table = self.ordinary(base, ring)
            n = lib.build(base).n
        else:
            X = wl.build_space(lib, base)
            n = X.n
            sub = lib.perversity(values[: n - 1], n)
            table = lib.ihcore.ih_homology(X, sub, lib.ring(ring))
        pbar = lib.perversity(values, n + 1)
        f = lib.formulas.cone_formula if kind == "c" else lib.formulas.suspension_formula
        return list(f(table, n, pbar).dims)

    def check_table(self, key, ans):
        _, _, recipe, pv, ring = key.split("/")
        if recipe in MANIFOLDS:
            want = self.ordinary(recipe, ring)
            self.note("ordinary_homology", ans == wl.plain(wl.table_answer(want)), key)
            return
        values = tuple(int(v) for v in pv.split(","))
        if ring == "Z":
            dims = self.formula_dims(recipe, values, "Q")
            if dims is not None:
                self.note("rational formula vs free ranks", ans["free"] == dims, key)
            return
        dims = self.formula_dims(recipe, values, ring)
        if dims is not None:
            self.note("cone/suspension formula", ans == dims, key)


def cross_check(answers):
    orc = Oracles()
    for key, ans in answers.items():
        if "/ih/" in key:
            orc.check_table(key, ans)
    # extension fields agree with their prime fields
    for key, ans in answers.items():
        for ext, prime in (("/F4", "/Z2"), ("/F9", "/Z3")):
            if key.endswith(ext):
                twin = key[: -len(ext)] + prime
                if twin in answers:
                    same = ans == answers[twin]
                    if key.startswith("witt/check/"):
                        same = ans["passes"] == answers[twin]["passes"]
                    orc.note("F_{p^m} equals Z_p", same, key)
    # acceptance suite, criterion 4: the Witt verdict matrix
    for name in ("S_RP2", "SS_RP2"):
        q, z2 = answers[f"witt/check/{name}/Q"], answers[f"witt/check/{name}/Z2"]
        orc.note("criterion 4", q["passes"] and not z2["passes"] and not q["oriented"], name)
    orc.note("criterion 4", not answers["witt/check/SJ_L3/Z3"]["passes"], "SJ_L3/Z3")
    for name in ("T2", "RP2", "Klein", "genus2"):
        for ring in wl.SIX_RINGS:
            orc.note("criterion 4", answers[f"witt/check/{name}/{ring}"]["passes"], name)
    for key, ans in answers.items():
        if key.startswith("witt/reduction/"):
            orc.note("characteristic reduction", ans is True, key)
    # acceptance suite, criterion 1: cone_RP2 at p(3) = 0
    z = answers["integral/ih/cone_RP2/0,0/Z"]
    orc.note("criterion 1", z["free"][1] == 0 and z["torsion"][1] == [2], "cone_RP2")
    orc.note("criterion 1", [v[0] for v in answers["integral/uct/cone_RP2/m/2"]] == [2],
             "cone_RP2 uct")
    check_cli(orc, answers)
    return orc.checked


def check_cli(orc, answers):
    lib = orc.lib
    for key, ans in answers.items():
        if not key.startswith("cli/"):
            continue
        orc.note("CLI exit code", ans["code"] == 0, key)
        argv = key[4:].split()
        doc = ans["doc"]
        if argv[0] == "compute" and "--normalize-triangulation" not in argv:
            space = argv[argv.index("--catalog") + 1]
            coeff = argv[argv.index("--coeff") + 1]
            ring = {"Zp:2": "Z2", "Zp:3": "Z3"}.get(coeff, coeff)
            degrees = doc["table"]["degrees"]
            if "--perversity" in argv:
                pv = argv[argv.index("--perversity") + 1][2:]
                twin = f"integral/ih/{space}/{pv}/Z" if ring == "Z" else f"tables/ih/{space}/{pv}/{ring}"
                want = answers[twin]
            elif space in MANIFOLDS or space in ("Klein", "genus2"):
                want = wl.plain(wl.table_answer(orc.ordinary(space, ring)))
            else:
                continue
            if ring == "Z":
                got = {"free": [degrees[str(i)]["rank"] for i in range(len(degrees))],
                       "torsion": [degrees[str(i)]["torsion"] for i in range(len(degrees))]}
            else:
                got = [degrees[str(i)]["dimension"] for i in range(len(degrees))]
            orc.note("CLI table vs library", got == want, key)
        elif argv[0] == "witt-check":
            space = argv[argv.index("--catalog") + 1]
            for res, ring in zip(doc["results"], ("Q", "Z2", "F4")):
                twin = answers.get(f"witt/check/{space}/{ring}")
                if twin is not None:
                    orc.note("CLI verdict vs library", res["passes"] == twin["passes"], key)
        elif argv[0] == "witt-class":
            # I3: dim 3, signed determinant -1; a square exactly when q = 1 mod 4
            q = 3 if argv[-1] == "Zp:3" else 9
            want = "square" if q % 4 == 1 else "nonsquare"
            cls = doc["class"]
            orc.note("closed-form Witt class", cls["dim0"] == 1 and cls["dpm"] == want, key)
        elif argv[0] == "bordism":
            n, p = int(argv[2]), int(argv[4])
            free, tors = wl.expected_bordism(n, p)
            g = doc["group"]
            orc.note("criterion 8", g["free_rank"] == free and g["torsion"] == tors, key)


def main():
    answers = record_all()
    checked = cross_check(answers)
    for oracle, count in sorted(checked.items()):
        print(f"cross-checked {count:4d} answers against {oracle}")
    with open(wl.REFERENCES, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(answers)} reference answers to {wl.REFERENCES}")


if __name__ == "__main__":
    main()
