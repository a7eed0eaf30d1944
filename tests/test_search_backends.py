"""The compiled kernel and the pure-Python twin must agree exactly."""

import pytest

from token_covers import _search_py as pure

from helpers import kernel_corpus, kernel_witness_pairs

compiled = pytest.importorskip("token_covers._search_c")


def test_generator_agreement():
    for g in kernel_corpus():
        assert (pure.automorphism_generators(g.adjacency_masks)
                == compiled.automorphism_generators(g.adjacency_masks))


def test_witness_agreement():
    for adj1, adj2 in kernel_witness_pairs():
        assert (pure.isomorphism_witness(adj1, adj2)
                == compiled.isomorphism_witness(adj1, adj2))


def test_backend_names():
    assert pure.BACKEND_NAME == "python"
    assert compiled.BACKEND_NAME == "c"
