"""Reference enumeration for ``qcpart.partitioner._rgs_rows``: every set
partition of n elements as a restricted growth string, Bell(n) rows, in
lexicographic order, plus the block count of each row. A row's children
take every block up to one past the row's highest, so the k-block rows are
a filter of the table, not generated as such.
"""

import numpy as np


def rgs_table(n):
    """(labels, nblocks): a (Bell(n), n) uint8 array of growth strings and
    the number of blocks of each."""
    labels = np.zeros((1, 1), dtype=np.uint8)
    nblocks = np.ones(1, dtype=np.uint8)
    for _ in range(n - 1):
        reps = nblocks.astype(np.int64) + 1
        parent = np.repeat(np.arange(nblocks.size), reps)
        ends = np.cumsum(reps)
        newcol = (np.arange(ends[-1]) - (ends - reps)[parent]).astype(np.uint8)
        labels = np.concatenate([labels[parent], newcol[:, None]], axis=1)
        nblocks = nblocks[parent] + (newcol == nblocks[parent])
    return labels, nblocks
