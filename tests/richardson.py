"""The Richardson cross-check of the extremal reports, formed from two library calls.

``max_dwell`` and ``max_libration`` report the supremum attained at the inset epsilon, below its closed-form
``analytic_bound`` by a deficit linear in epsilon.  One Richardson step, 2 sup(epsilon) - sup(2 epsilon), removes
that deficit, so the tests hold it far closer to the bound than either supremum: the reports approach the bound
linearly, as the closed forms say.
"""


def extrapolated(report_at, epsilon: float) -> float:
    """2 sup(epsilon) - sup(2 epsilon), with sup(e) = ``report_at(e).supremum``, for 0 < epsilon <= 1.

    There sup(2 epsilon)/sup(epsilon) >= 0.618, so fine - coarse is exact and the sum is 2 fine - coarse rounded
    once, a double wherever that is one.
    """
    fine, coarse = report_at(epsilon).supremum, report_at(2.0 * epsilon).supremum
    return fine + (fine - coarse)
