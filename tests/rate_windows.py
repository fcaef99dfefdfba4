"""The rate windows of the acceptance criteria on observed orders of convergence.

A degree-k solve passes when the EOC of u lies in [k + 2 - LO, k + 2 + HI]
and the EOC of sigma in [k + 1 - LO, k + 1 + HI].
"""

EOC_WINDOW_LO = 0.3   # allowed shortfall below the optimal rate
EOC_WINDOW_HI = 0.5   # allowed excess above the optimal rate


def rate_windows_ok(eoc_u, eoc_sigma, k):
    ok_u = (k + 2 - EOC_WINDOW_LO) <= eoc_u <= (k + 2 + EOC_WINDOW_HI)
    ok_s = (k + 1 - EOC_WINDOW_LO) <= eoc_sigma <= (k + 1 + EOC_WINDOW_HI)
    return ok_u, ok_s
