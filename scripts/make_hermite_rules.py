#!/usr/bin/env python3
"""Regenerate the Gauss-Hermite rules that ``supcogarch.charexp`` loads.

    python scripts/make_hermite_rules.py [OUT]

Writes ``scipy.special.roots_hermite(n)`` for every refinement level
``charexp._GH_LEVELS`` as one .npy array of shape (2, sum of levels): row 0
the nodes, row 1 the weights (weight function exp(-x^2)), the levels one
after another in increasing order.  The raw values are stored, so the rules
``charexp`` builds from them are bit-identical to those built from scipy
directly.  numpy's ``hermgauss`` is no substitute: it differs by up to 7e-13
and returns nan at n >= 512.  OUT defaults to the file inside the package.
"""

import sys
from pathlib import Path

import numpy as np
from scipy.special import roots_hermite

from supcogarch.charexp import _GH_LEVELS, HERMITE_RULES_FILE


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else HERMITE_RULES_FILE
    table = np.concatenate([np.stack(roots_hermite(n)) for n in _GH_LEVELS], axis=1)
    np.save(out, table, allow_pickle=False)
    print(out)
