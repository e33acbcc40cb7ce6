"""Walkthrough: finite-dimensional reduction of a compact perturbation
and the degree it leaves behind.

Given f = l + c with l linear and c vanishing far out, choose a small
subspace V that approximates the image of c, restrict f to l^(-1)(V),
project to V, and take the Brouwer degree.  The result is independent
of every choice along the way; that stability is what makes the class
of f well defined.
"""

from fractions import Fraction

from swcohom import (
    ReductionProblem,
    builtin_compact,
    choose_reduction_subspace,
    proper_not_bounded_demo,
    reduce_and_degree,
    stability_check,
    verify_miss_condition,
)


def main():
    print("A translation in the plane: degree 1")
    print("------------------------------------")
    p = ReductionProblem(
        2, 2, [[1, 0], [0, 1]],
        builtin_compact("constant", 2, {"vector": [1, 0]}), 2,
    )
    v = choose_reduction_subspace(p)
    # each entry of V is a (numerator, denominator) pair
    shown = [[str(Fraction(*x)) for x in b] for b in v]
    print(f"chosen V has dimension {len(v)}: {shown}")
    miss = verify_miss_condition(p, v)
    print(f"miss condition holds on {miss.samples_checked} sampled points: {miss.ok}")
    r = reduce_and_degree(p, v)
    print(f"reduced to dimension {r.reduced_dim}, degree = {r.degree}")
    print()

    print("z^2 - 1 as a compact part over the zero operator: degree 2")
    print("-----------------------------------------------------------")
    q = ReductionProblem(
        2, 2, [[0, 0], [0, 0]],
        builtin_compact("complex_square_minus_one", 2), Fraction(3, 2),
    )
    r = reduce_and_degree(q, choose_reduction_subspace(q))
    print(f"two simple zeros at z = +-1, degree = {r.degree}")
    print()

    print("Stability under enlarging V")
    print("---------------------------")
    verdict = stability_check(p, [[1, 0]], [[1, 0], [0, 1]])
    print(f"degree through V: {verdict.degree_small}, "
          f"through W > V: {verdict.degree_large}, equal: {verdict.equal}")
    print()

    print("Why 'bounded preimages of bounded sets' is the right condition")
    print("--------------------------------------------------------------")
    rep = proper_not_bounded_demo(6)
    norms = ", ".join(str(x) for x in rep.corrected_preimage_norms)
    print("a sum of localized spikes keeps every compact preimage compact,")
    print(f"yet preimages of the unit ball reach norms {norms}")
    print(f"(unbounded: {rep.corrected_found_unbounded}); properness alone")
    print("does not survive the passage to one-point completions.")


if __name__ == "__main__":
    main()
