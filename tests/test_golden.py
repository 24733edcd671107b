"""Golden output digests of ``tokmerge compress`` on small synthetic corpora.

Each case plants a corpus with ``tokmerge synth``, runs ``tokmerge
compress`` on it and compares the sha256 of every output file with the
digest recorded for it in ``support.CASES``. The output is meant to stay
byte-identical across refactors and speed-ups; a change that alters it on
purpose records new digests there and says why.

The pass-through cases use no matrix product. The cluster and inner-merge
cases do (DPC-KNN distances, Q/K attention, inner-merge similarities), and
BLAS may round those differently on another CPU or library build, so their
digests hold for the host they were recorded on: x86-64, numpy 2.4 with
its bundled OpenBLAS.
"""

import pytest

from support import CASES, compress_case


@pytest.mark.parametrize("case", sorted(CASES))
def test_compress_output_digests(case, tmp_path):
    assert compress_case(case, tmp_path) == CASES[case]
