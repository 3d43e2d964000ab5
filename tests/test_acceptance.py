"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value is either computed by an independent oracle inside
the test or asserted exactly; tolerances are exact throughout (the
library is exact arithmetic).
"""
import json
import math
import random
import time
from pathlib import Path

import jsonschema
import pytest
import sympy

from zkit import (IntegerRing, PrimeField, QuotientRing, Rationals,
                  ResidueRing, compact_open, affine_cover, enumerate_homs,
                  fin_gen_ideal, glue_element, glue_hom, ideal_member,
                  is_unit, localize, locality_trial, make_family,
                  make_hom, point_from_localized_hom,
                  point_membership, point_to_localized_hom, points_over,
                  polynomial_ring, pushdown, quotient_by, restrict,
                  restrict_hom, standard_open, support_D, whole_scheme,
                  zar_bottom, zar_elt, zar_eq, zar_eq_top, zar_join,
                  zar_leq, zar_meet, zar_top)
from zkit.dsl import parse, pretty_print
from zkit.interp import Options, REPORT_SCHEMA, run_source
from zkit.limits import stats

from helpers import (random_element, random_endo, random_quotient_ring,
                     random_ring, random_unimodular_cover)

Z = IntegerRing()
SCRIPTS = Path(__file__).parent / "scripts"


def verdict(number: int, ok: bool, detail: str):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def ring_pools(rng):
    quotients_q = [random_quotient_ring(rng, base=Rationals(), max_vars=2,
                                        max_relations=2, rel_deg=3)
                   for _ in range(20)]
    quotients_p = [random_quotient_ring(rng,
                                        base=PrimeField(rng.choice((2, 3, 5, 7))),
                                        max_vars=2, max_relations=2, rel_deg=3)
                   for _ in range(20)]
    return quotients_q, quotients_p


def test_criterion_1_support_laws():
    rng = random.Random(1001)
    pool_q, pool_p = ring_pools(rng)
    start = time.perf_counter()
    failures = 0
    total = 0

    def one_instance(ring):
        nonlocal failures, total
        total += 1
        f = random_element(ring, rng, 3)
        g = random_element(ring, rng, 3)
        ok = (zar_eq(support_D(ring.one()), zar_top(ring))
              and zar_eq(support_D(ring.zero()), zar_bottom(ring))
              and zar_eq(support_D(f * g), zar_meet(support_D(f), support_D(g)))
              and zar_leq(support_D(f + g),
                          zar_join(support_D(f), support_D(g))))
        if not ok:
            failures += 1

    for _ in range(350):
        one_instance(Z)
    for _ in range(350):
        one_instance(ResidueRing(rng.randrange(2, 65)))
    for _ in range(150):
        one_instance(rng.choice(pool_q))
    for _ in range(150):
        one_instance(rng.choice(pool_p))
    elapsed = time.perf_counter() - start
    verdict(1, failures == 0 and total == 1000 and elapsed <= 60,
            f"support laws d(1)/d(0)/d(fg)/d(f+g): {total} instances, "
            f"{failures} failures, {elapsed:.1f}s (limit 60s)")


def test_criterion_2_lattice_decision_cross_check():
    rng = random.Random(1002)
    disagreements = 0
    total = 0
    for _ in range(300):
        ring = random_ring(rng)
        total += 1
        if total % 2:
            u = zar_elt(ring, [random_element(ring, rng, 2)
                               for _ in range(rng.randrange(1, 4))])
            via_cert = zar_eq_top(u) is not None
            via_order = zar_eq(u, zar_top(ring))
            if via_cert != via_order:
                disagreements += 1
        else:
            f = random_element(ring, rng, 2)
            g = random_element(ring, rng, 2)
            via_radical = zar_leq(support_D(g), support_D(f))
            L = localize(ring, g)
            via_unit = is_unit(L.element(L.from_base(f))) is not None
            if via_radical != via_unit:
                disagreements += 1
    verdict(2, disagreements == 0 and total == 300,
            f"eq-top vs unimodularity and order vs localized unit: "
            f"{total} instances, {disagreements} disagreements (exact)")


def test_criterion_3_glue_isomorphism():
    rng = random.Random(1003)
    start = time.perf_counter()
    failures = 0
    for _ in range(300):
        ring = random_ring(rng)
        cover = random_unimodular_cover(ring, rng)
        g = random_element(ring, rng, 2)
        padded = []
        for f, L in zip(cover.elements, cover.localized):
            k = rng.randrange(0, 3)
            padded.append(L.fraction(g * f ** k, k))
        fam = make_family(cover, tuple(padded))
        glued = glue_element(fam)  # self-checks restrictions via frac_eq
        if glued != g:
            failures += 1
    hom_trials = 0
    while hom_trials < 50:
        ring = random_ring(rng, kinds=("Q", "Fp"))
        if len(ring.variables) > 2:
            continue
        psi = random_endo(ring, rng)
        if psi is None:
            continue
        hom_trials += 1
        cover = random_unimodular_cover(ring, rng)
        fam = restrict_hom(cover, psi)
        glued = glue_hom(fam)
        if glued.generator_images != psi.generator_images:
            failures += 1
            continue
        back = restrict_hom(cover, glued)
        for h1, h2 in zip(fam.homs, back.homs):
            for a, b in zip(h1.generator_images, h2.generator_images):
                if a != b:
                    failures += 1
    elapsed = time.perf_counter() - start
    verdict(3, failures == 0 and elapsed <= 120,
            f"glue/restrict round trips: 300 element-level + "
            f"{hom_trials} hom-level, {failures} failures, "
            f"{elapsed:.1f}s (limit 120s)")


def test_criterion_4_pushdown_and_separatedness():
    rng = random.Random(1004)
    failures = 0
    for _ in range(300):
        ring = random_ring(rng)
        f = random_element(ring, rng, 2)
        L = localize(ring, f)
        u = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        if not zar_eq(pushdown(L, restrict(L, u)), zar_meet(u, support_D(f))):
            failures += 1
    confirmed = refuted = 0
    while confirmed < 100:
        ring = random_ring(rng)
        cover = random_unimodular_cover(ring, rng)
        gens = [random_element(ring, rng, 2) for _ in range(rng.randrange(3))]
        u = zar_elt(ring, gens)
        # an equal element with different syntax: square one generator,
        # duplicate another
        variant = gens + [g * g for g in gens[:1]]
        v = zar_elt(ring, variant)
        assert zar_eq(u, v)
        if all(zar_eq(restrict(localize(ring, f), u),
                      restrict(localize(ring, f), v))
               for f in cover.elements):
            confirmed += 1
        else:
            failures += 1
            confirmed += 1
    while refuted < 100:
        ring = random_ring(rng)
        cover = random_unimodular_cover(ring, rng)
        u = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        v = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(3))])
        if zar_eq(u, v):
            continue
        refuted += 1
        differs = any(not zar_eq(restrict(localize(ring, f), u),
                                 restrict(localize(ring, f), v))
                      for f in cover.elements)
        if not differs:
            failures += 1
    verdict(4, failures == 0,
            f"pushdown o restrict == meet with D(f) on 300 samples; "
            f"separatedness: {confirmed} equal pairs agree on restrictions, "
            f"{refuted} distinct pairs show a differing restriction, "
            f"{failures} failures")


def test_criterion_5_standard_open_bijection():
    rng = random.Random(1005)
    failures = 0
    cases = 0
    while cases < 10:
        p = rng.choice((5, 7))
        ring = random_quotient_ring(rng, base=PrimeField(p), max_vars=2,
                                    max_relations=1, rel_deg=2)
        f = random_element(ring, rng, 2)
        if f.is_zero:
            continue
        cases += 1
        field = QuotientRing(PrimeField(p))
        L = localize(ring, f)
        pts = points_over(standard_open(ring, f), field)
        homs = enumerate_homs(L.presentation, field)
        if len(pts) != len(homs):
            failures += 1
            continue
        for pt in pts:
            psi = point_to_localized_hom(pt, L)
            back = point_from_localized_hom(L, psi)
            if back.hom.generator_images != pt.hom.generator_images:
                failures += 1
        for psi in homs:
            pt = point_from_localized_hom(L, psi)
            back = point_to_localized_hom(pt, L)
            if back.generator_images != psi.generator_images:
                failures += 1
    verdict(5, failures == 0,
            f"standard-open points vs localization homs over F5/F7: "
            f"{cases} random (R, f), cardinalities equal and round trips "
            f"identity, {failures} failures")


def test_criterion_6_cover_extraction():
    rng = random.Random(1006)
    failures = 0
    for _ in range(100):
        ring = random_ring(rng)
        u = zar_elt(ring, [random_element(ring, rng, 2)
                           for _ in range(rng.randrange(4))])
        cov = affine_cover(compact_open(ring, list(u.generators)))
        join = zar_elt(ring, [o.element.generators[0] for o in cov.opens]) \
            if cov.opens else zar_bottom(ring)
        if not (cov.join_matches and zar_eq(join, u)):
            failures += 1
    verdict(6, failures == 0,
            f"affine cover join equals the input element: 100 random "
            f"lattice elements, {failures} failures (exact)")


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (7, 3), (5, 2)])
def test_criterion_7_fermat_counts(p, n):
    free = polynomial_ring(PrimeField(p), ["x", "y", "z"])
    x, y, z = free.gens()
    ring = quotient_by(free, [x ** n + y ** n - z ** n])
    field = QuotientRing(PrimeField(p))
    start = time.perf_counter()
    pts = points_over(whole_scheme(ring), field)
    elapsed = time.perf_counter() - start
    brute = sum(1 for a in range(p) for b in range(p) for c in range(p)
                if (pow(a, n, p) + pow(b, n, p) - pow(c, n, p)) % p == 0)
    verdict(7, len(pts) == brute and elapsed <= 5,
            f"solution functor count for x^{n}+y^{n}-z^{n} over F{p}: "
            f"{len(pts)} points == {brute} brute-forced, "
            f"{elapsed:.2f}s (limit 5s)")


def test_criterion_8_locality_sampling():
    rng = random.Random(1008)
    failures = 0
    trials = 0
    setups = []
    # finite-field valued points of standard opens
    for p in (5, 7):
        field = QuotientRing(PrimeField(p))
        ring = polynomial_ring(PrimeField(p), ["x"])
        V = standard_open(ring, ring.var("x"))
        for pt in points_over(V, field):
            setups.append((pt, field))
    # integer points valued in residue rings
    VZ = compact_open(Z, [2, 3])
    for m in (5, 7, 11, 25, 35):
        pt = point_membership(VZ, make_hom(Z, ResidueRing(m)))
        if pt is not None:
            setups.append((pt, ResidueRing(m)))
    # rational endo points
    Qx = polynomial_ring(Rationals(), ["x"])
    VQ = compact_open(Qx, [Qx.var("x"), 1 - Qx.var("x")])
    for c in (0, 1, 2, -1, 3):
        pt = point_membership(VQ, make_hom(Qx, Qx, (Qx.from_int(c),)))
        if pt is not None:
            setups.append((pt, Qx))
    while trials < 100:
        pt, S = setups[trials % len(setups)]
        cover = random_unimodular_cover(S, rng)
        trial = locality_trial(pt, cover, rng)
        trials += 1
        if not trial.ok:
            failures += 1
    verdict(8, failures == 0 and trials == 100,
            f"glue preserves compact-open membership: {trials} trials over "
            f"{len(setups)} point/cover setups, {failures} failures")


def test_criterion_9_groebner_sanity():
    failures = 0
    # (a) every basis computed in this test run passed the post-hoc
    # Buchberger criterion (conftest enables check_bases session-wide;
    # any violation would have raised at computation time)
    bases_ok = stats.bases_computed > 0 and \
        stats.bases_checked == stats.bases_computed
    # (b) integer membership vs an independent gcd oracle (math.gcd)
    rng = random.Random(1009)
    for _ in range(500):
        gens = [rng.randrange(-99, 100) for _ in range(rng.randrange(1, 4))]
        a = rng.randrange(-200, 200)
        g = 0
        for v in gens:
            g = math.gcd(g, v)
        oracle = (a == 0) if g == 0 else (a % g == 0)
        I = fin_gen_ideal(Z, [Z.element(v) for v in gens])
        cof = ideal_member(Z.element(a), I)
        if (cof is not None) != oracle:
            failures += 1
        if cof is not None:
            total = Z.zero()
            for c, f in zip(cof, I.generators):
                total = total + c * f
            if total != Z.element(a):
                failures += 1
    # (c) tiny univariate membership vs a coefficient-box brute force and
    # an independent sympy gcd oracle
    Qx = polynomial_ring(Rationals(), ["x"])
    xsym = sympy.Symbol("x")

    def to_sympy(e):
        return sympy.Poly(
            sum(int(c) * xsym ** m[0] for m, c in e.payload), xsym) \
            if e.payload else sympy.Poly(0, xsym)

    box = [-2, -1, 0, 1, 2]
    for case in range(100):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            e = Qx.element({(d,): rng.choice(box) for d in
                            range(rng.randrange(1, 4))})
            if not e.is_zero:
                gens.append(e)
        if not gens:
            continue
        I = fin_gen_ideal(Qx, gens)
        if case % 2 == 0:
            # constructed member: cofactors straight from the box
            cofs = [Qx.element({(0,): rng.choice(box), (1,): rng.choice(box)})
                    for _ in gens]
            a = Qx.zero()
            for c, f in zip(cofs, gens):
                a = a + c * f
        else:
            a = Qx.element({(d,): rng.choice(box)
                            for d in range(rng.randrange(1, 4))})
        mine = ideal_member(a, I) is not None
        spoly = sympy.Poly(0, xsym)
        for g in I.generators:
            spoly = sympy.gcd(spoly, to_sympy(g))
        if spoly.is_zero:
            oracle = a.is_zero
        else:
            oracle = sympy.rem(to_sympy(a), spoly, xsym).is_zero
        if mine != oracle:
            failures += 1
    verdict(9, bases_ok and failures == 0,
            f"Buchberger criterion re-verified on all "
            f"{stats.bases_checked}/{stats.bases_computed} bases; "
            f"membership vs gcd oracle (500 integer cases) and vs "
            f"box/sympy oracles (100 univariate cases): {failures} failures")


def test_criterion_10_cli_corpus(tmp_path):
    manifest = json.loads((SCRIPTS / "manifest.json").read_text())
    names = manifest["ok"] + manifest["refuted"] + manifest["error"]
    failures = []
    certs = 0
    for name in names:
        source = (SCRIPTS / f"{name}.zk").read_text()
        script = parse(source)
        if parse(pretty_print(script)) != script:
            failures.append(f"{name}: print round trip")
            continue
        report = run_source(source, Options(seed=23))
        try:
            jsonschema.validate(report.to_json(), REPORT_SCHEMA)
        except jsonschema.ValidationError:
            failures.append(f"{name}: schema")
            continue
        expected = (0 if name in manifest["ok"]
                    else 1 if name in manifest["refuted"] else 2)
        if report.exit_code != expected:
            failures.append(f"{name}: exit {report.exit_code} != {expected}")
            continue
        emitted = [r for r in report.results if r.certificate is not None]
        if emitted:
            out = tmp_path / f"{name}.json"
            out.write_text(json.dumps(report.to_json()))
            check = run_source(f'verify "{out}";')
            if check.results[0].status != "ok":
                failures.append(f"{name}: certificate re-verification")
                continue
            certs += len(emitted)
    verdict(10, len(names) >= 30 and not failures,
            f"CLI corpus: {len(names)} scripts parse, print-round-trip, "
            f"run with specified exit codes, validate against the JSON "
            f"schema; {certs} certificates re-verified; "
            f"failures: {failures or 'none'}")
