"""Walkthrough: from four-manifold data to a divisibility bound.

A closed spin^c 4-manifold with b1 = 0, odd b+ = 2p+1 and Dirac index d
has its integer Seiberg-Witten invariant divisible by the order of a
Hurewicz cokernel, and that order is bounded below by an lcm of Taylor
denominators.  Everything below is exact integer arithmetic.
"""

from fractions import Fraction

from swcohom import (
    FourManifoldData,
    divisibility_constraint,
    dirac_index_d,
    expected_moduli_dimension,
    sharpness_scan,
    sw_divisibility_lower_bound,
)


def main():
    print("A worked instance")
    print("-----------------")
    m = FourManifoldData(b1=0, b_plus=3, b_minus=3, c_squared=40)
    d = dirac_index_d(m.c_squared, m.signature)
    k = expected_moduli_dimension(d, m.b_plus)
    print(f"b1=0, b+={m.b_plus}, b-={m.b_minus}, c^2={m.c_squared}")
    print(f"Dirac index d = (c^2 - sigma)/8 = {d}")
    print(f"expected moduli dimension k = 2d - b+ - 1 = {k}")

    report = divisibility_constraint(m)
    # a_coeffs holds (numerator, denominator) pairs in lowest terms
    coeffs = ", ".join(str(Fraction(*c)) for c in report.a_coeffs)
    print(f"relevant Taylor coefficients a({report.p}, 0..{report.kappa}): {coeffs}")
    print(f"the invariant is divisible by lcm of denominators = {report.lower_bound}")
    print()

    print("How good is the bound?")
    print("----------------------")
    print("k=2: always equal to the exact cokernel order gcd(2, d-1).")
    print("k=4: a lower bound that already fails to be sharp at d=4.")
    print()
    print(" d  k  bound  cokernel  sharp")
    for r in sharpness_scan(3, 10):
        mark = "yes" if r.sharp else "NO"
        print(f"{r.d:2d}  {r.k}  {r.lower_bound:5d}  {r.lemma_cokernel_order:8d}  {mark}")
    print()

    r = sw_divisibility_lower_bound(4, 4)
    print(f"at d=4, k=4 the bound gives {r.lower_bound} while the true order "
          f"is {r.lemma_cokernel_order}:")
    print("the lcm sees only denominators, not the full stable-homotopy torsion.")


if __name__ == "__main__":
    main()
