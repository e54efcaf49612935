"""The benchmark's in-process corpora give the same results as when their
digests were pinned: the repr of every `product` result and of every
`chain` result, hashed with SHA-256.  A change meant to keep outputs as
they are is checked here, not assumed; a change that alters an output on
purpose pins the new digest and says why."""

import hashlib
import importlib.util
from itertools import islice
from pathlib import Path

import nevkit.poly
from nevkit.poly import gcd

PRODUCT_SHA256 = \
    "10c2d932ba12bbd825729b965be35909d30c8a071a2966b6152b70b9c240a649"
CHAIN_SHA256 = \
    "67918f4f62f7d56ca46c6267f0387ecc62c278b0ccdcb88e634c85eb649b1bf7"


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _product_lines(w):
    """The repr of each factorization of the 246 draws at seed 1002, a
    rejection as Type:message."""
    product = w.Product()
    for item in product._draws(product.corpus_seed, product.draws_per_10s):
        try:
            yield repr(product.call(product.prepare(item)))
        except product.rejectable as exc:
            yield f"{type(exc).__name__}:{exc}"


def _chain_lines(w):
    """The repr of each result of the worked pair and 50 plain pairs at
    seed 1005."""
    chain = w.Chain()
    for item in w._plain_instances(chain.corpus_seed, chain.items_per_10s,
                                   worked=True):
        yield repr(chain.call(chain.prepare(item)))


def test_product_results_match_their_digest():
    assert _digest(_product_lines(_workloads())) == PRODUCT_SHA256


def test_chain_results_match_their_digest():
    assert _digest(_chain_lines(_workloads())) == CHAIN_SHA256


def test_root_kernels_see_only_squarefree_polynomials(monkeypatch):
    """Every polynomial reaching the p-adic rational-root search on the
    first 100 `product` draws and the 51 `chain` items is squarefree:
    squarefreeness is decided before the root kernels, which rely on it."""
    seen, search = [], nevkit.poly._rational_roots

    def recorded(a):
        seen.append(a)
        return search(a)
    monkeypatch.setattr(nevkit.poly, "_rational_roots", recorded)
    w = _workloads()
    for _line in islice(_product_lines(w), 100):
        pass
    for _line in _chain_lines(w):
        pass
    assert seen
    for a in seen:
        p = nevkit.poly._poly(a)
        assert gcd(p, p.deriv()).degree == 0, a
