"""The KD-tree constructor, with scipy loaded on the first build.

Importing ``scipy.spatial`` costs about 0.3 s, more than most commands
that never build a tree (``formulas``, ``contact-opt``, ``render``
without edges, ``construct-diagonal``) spend on their work.  ``core``,
``contact`` and ``generators`` bind this function under the name
``cKDTree``, so a caller that counts or replaces tree builds through that
name (the perfbench tracer, the tests' monkeypatches) sees every build.
"""


def cKDTree(*args, **kwargs):  # noqa: N802  (stands in for scipy's class name)
    from scipy.spatial import cKDTree as tree

    return tree(*args, **kwargs)
