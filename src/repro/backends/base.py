"""Kernel backend protocol and registry.

A :class:`KernelBackend` is the pluggable execution substrate behind
the engine's kernel interface: every elementary operation the datapath
performs — adder dispatch, fixed-point encode/decode, and the fused
in-range kernels the program-replay fast paths are built on — routes
through the engine's backend object.  The NumPy reference backend
(:mod:`repro.backends.numpy_backend`) is today's code refactored behind
the interface with zero behavior change; alternative backends (the
optional Numba backend, :mod:`repro.backends.numba_backend`) may swap
in specialized kernels as long as they stay **bit-identical** to the
reference — the bit-serial ``adders.reference`` suite is the
cross-backend oracle (``tests/hardware/test_backend_equivalence.py``).

Selection precedence (resolved once at engine construction):

1. an explicit backend (``ApproxIt(backend=...)`` / CLI ``--backend``);
2. the ``$REPRO_BACKEND`` environment variable;
3. the ``"numpy"`` reference backend.

The resolved backend's :attr:`~KernelBackend.name` rides in the solver
service's content-address key (see
:meth:`repro.service.requests.SolveRequest.payload`), so cached runs
stay bit-identical per backend.
"""

from __future__ import annotations

import os

import numpy as np

try:  # SciPy is a declared dependency, but the kernels keep a pure-
    # NumPy fallback so a stripped environment still runs correctly.
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None

from repro.hardware import bitops
from repro.hardware.adders.loa import LowerOrAdder
from repro.hardware.adders.truncated import TruncatedAdder

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV = "REPRO_BACKEND"

#: The always-available reference backend.
DEFAULT_BACKEND = "numpy"


class KernelBackend:
    """Execution substrate for the engine's elementary kernels.

    The base class *is* the NumPy reference semantics: every method's
    default implementation delegates to the adder model / fixed-point
    format exactly as the pre-backend engine did, so a subclass only
    overrides the kernels it specializes and inherits reference
    behavior (and hence bit-exactness) everywhere else.

    Three method groups:

    * **primitive dispatch** (:meth:`add_signed`, :meth:`add_unsigned`,
      :meth:`encode`, :meth:`decode`) — always-correct entry points the
      interpreted path calls for every operation;
    * **fused in-range kernels** (:meth:`add_words_inrange`,
      :meth:`sub_words_inrange`, :meth:`reduce_inrange`,
      :meth:`product_reduce_words`) — called only by program replay
      *after* the caller has proved the operation cannot leave the
      representable range (exact adder, saturating format, interval
      proof), where the masked/clipped reference computation provably
      collapses to plain integer arithmetic.  Implementations must be
      bit-identical to the reference under those preconditions;
    * **closed-form tree reduce** (:meth:`reduce_tree`) — the whole
      balanced-tree fold through a LOA or truncation adder in one pass
      of integer reductions, called by every fast reduce site once the
      caller has proved no saturating add can clamp.

    Attributes:
        name: registry key (also the value carried in content-address
            keys and ``BENCH_perf.json`` entries).
        version: substrate version string for provenance (e.g. the
            NumPy or Numba release).
    """

    name: str = "abstract"
    version: str = "0"

    # ------------------------------------------------------------------
    # Primitive dispatch
    # ------------------------------------------------------------------
    def add_signed(self, adder, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """One elementary addition through ``adder`` (two's-complement,
        wraparound overflow) — the single adder entry point of
        :meth:`repro.arith.engine.ApproxEngine._add_words`."""
        return adder.add_signed(qa, qb)

    def add_unsigned(self, adder, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
        """Unsigned ``width``-bit addition through ``adder`` (the
        surface the bit-serial equivalence oracle exercises)."""
        return adder.add_unsigned(ua, ub)

    def encode(
        self, fmt, values: np.ndarray, *, assume_finite: bool = False
    ) -> np.ndarray:
        """Quantize floats to fixed-point words (``int64``)."""
        return fmt.encode(values, assume_finite=assume_finite)

    def decode(self, fmt, words: np.ndarray) -> np.ndarray:
        """Fixed-point words back to floats."""
        return fmt.decode(words)

    # ------------------------------------------------------------------
    # Fused in-range kernels (caller supplies the range proof)
    # ------------------------------------------------------------------
    def add_words_inrange(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """Exact add of words whose sum provably stays in range: the
        masked two's-complement add collapses to plain ``+``."""
        return np.add(qa, qb)

    def sub_words_inrange(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """Exact subtract under an in-range (and no-negation-clamp)
        proof: negation plus masked add collapses to plain ``-``."""
        return np.subtract(qa, qb)

    def reduce_inrange(self, q: np.ndarray, axis: int = 0) -> np.ndarray:
        """Tree-reduce along ``axis`` when every partial sum provably
        stays in range: in-range exact integer addition is associative,
        so a flat fold is bit-identical to the balanced tree."""
        return np.add.reduce(q, axis=axis)

    def has_closed_reduce(self, adder) -> bool:
        """Whether :meth:`reduce_tree` has a closed form for ``adder``
        (a plain LOA or truncation adder with approximate bits)."""
        kind = type(adder)
        return (kind is LowerOrAdder or kind is TruncatedAdder) and not adder.is_exact

    def reduce_tree(self, adder, q: np.ndarray, plan) -> np.ndarray | None:
        """Closed-form balanced-tree reduce of axis 0 through ``adder``.

        Returns the words the level-by-level fold of ``q`` (``n >= 2``
        signed ``width``-bit words per lane) through ``adder`` produces
        under *wrap* semantics, or ``None`` when the adder has no closed
        form.  Dispatch is on the exact type: a :class:`LowerOrAdder`
        or :class:`TruncatedAdder` subclass (or wrapper) may change the
        per-add semantics, so only the two plain models qualify.  The
        caller proves a saturating output stage never clamps (see
        :func:`repro.arith.engine.closed_reduce`) and that the sums
        below fit ``int64`` (``n << (width - k) < 2**63``).

        With ``u`` the unsigned word and ``k = approx_bits``:

        * **LOA** — the low ``k`` bits of every node are the OR of its
          children's, so the root's are the OR-reduce of the leaves'.
          The upper ``width - k`` bits add exactly plus one carry per
          internal node whose two subtrees both have bit ``k - 1`` set.
          Writing ``a & b == a + b - (a | b)`` per node and summing over
          the tree telescopes (every non-root node is the child of
          exactly one internal node) to ``s - OR(root)``: ``s`` leaves
          carry bit ``k - 1`` and the count is ``max(s - 1, 0)``,
          whatever the split and odd-tail geometry.  The root's upper
          part is ``(sum(u >> k) + max(s - 1, 0)) mod 2**(width - k)``.
        * **Truncation** — ``sum(u >> k) mod 2**(width - k)`` shifted
          back, with the fill bits below.

        Modular addition is associative, so the tree geometry enters
        neither form; ``plan`` (the shape's cached
        :class:`~repro.arith.engine.ReductionPlan`) only lends its
        scratch buffer, so the hot loop allocates the reduced output
        alone.  The signed arithmetic shift stands in for ``u >> k``:
        ``q >> k`` and ``u >> k`` differ by a multiple of
        ``2**(width - k)``.  Exhaustive width-8 agreement with the
        bit-serial references is pinned by
        ``tests/hardware/test_closed_reduce.py``.
        """
        if not self.has_closed_reduce(adder):
            return None
        k = adder.approx_bits
        width = adder.width
        scratch = plan.scratch_like(q)
        upper_mask = np.int64((1 << (width - k)) - 1)
        if type(adder) is LowerOrAdder:
            # (q >> k) + bit_{k-1}(q) == (q + 2**(k-1)) >> k, so the
            # leaves' upper parts plus s is one rounded sum; the root's
            # bit k-1 (its OR-reduce) is the carry the tree never adds.
            np.add(q, np.int64(1 << (k - 1)), out=scratch)
            np.right_shift(scratch, k, out=scratch)
            low = np.bitwise_or.reduce(q, axis=0) & np.int64((1 << k) - 1)
            upper = np.add.reduce(scratch, axis=0) - (low >> (k - 1))
        else:
            np.right_shift(q, k, out=scratch)
            upper = np.add.reduce(scratch, axis=0)
            low = np.int64((1 << k) - 1 if adder.fill == "one" else 0)
        words = ((upper & upper_mask) << k) | low
        return bitops.to_signed(words, width)

    def product_reduce_words(
        self,
        a: np.ndarray,
        b: np.ndarray,
        scale: float,
        axis: int,
        bufs: dict,
    ) -> np.ndarray:
        """Fused product → encode → in-range reduce.

        Computes ``reduce(rint((a * b) * scale), axis)`` as int64 words
        with the encode clip *skipped* — callable only when the caller
        proved every encoded word and every partial sum in range *and*
        below ``2**53`` (see ``repro.arith.program._fused_product_ok``).
        ``a * b``
        broadcasts; ``bufs`` is per-call-site scratch storage keyed by
        broadcast shape, reused across iterations so the hot loop
        allocates only the reduced output.

        Bit-exactness argument: the reference path computes
        ``rint(product * scale).astype(int64)`` then clips then
        tree-reduces; with the clip proven a no-op and the tree proven
        in-range, the same float ops followed by a flat fold produce
        the identical words.  The fold itself runs in the float buffer:
        after ``rint`` every element is integer-valued, and the
        caller's ``n*W < 2**53`` proof bounds every partial sum (under
        *any* association, so NumPy's pairwise float summation is
        covered) below the float64 integer-exact range — the float
        reduce is therefore the exact integer sum, and the O(rows)
        result is the only value cast, skipping the O(rows*cols)
        ``int64`` conversion pass entirely.
        """
        shape = np.broadcast_shapes(a.shape, b.shape)
        fbuf = bufs.get(shape)
        if fbuf is None:
            fbuf = bufs[shape] = np.empty(shape, dtype=np.float64)
        np.multiply(a, b, out=fbuf)
        fbuf *= scale
        np.rint(fbuf, out=fbuf)
        return np.add.reduce(fbuf, axis=axis).astype(np.int64)

    def csr_matvec_words(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        x: np.ndarray,
        scale: float,
        bufs: dict,
    ) -> np.ndarray:
        """Fused sparse product → encode → per-row in-range reduce.

        The CSR sibling of :meth:`product_reduce_words`: computes, per
        matrix row, ``sum_k rint((data[k] * x[indices[k]]) * scale)``
        as int64 words with the encode clip *skipped* — callable only
        under the caller's ``nnz_max``-specialized proof (``W <= hi``,
        ``nnz_max * W <= hi``, ``nnz_max * W < 2**53`` — see
        ``repro.arith.program._fused_product_ok``), which bounds every
        partial sum of every row's segment under *any* association.
        The fold therefore runs in the float buffer (every element is
        integer-valued after ``rint`` and every partial sum stays in
        float64's integer-exact range) and only the O(rows) result is
        cast.  ``x`` is ``(n,)`` for one lane or ``(B, n)``
        lane-stacked; the result is ``(rows,)`` / ``(B, rows)`` with
        empty rows emitting the zero word.  ``bufs`` is per-call-site
        scratch (row-partition geometry plus the product buffer),
        reused across iterations.
        """
        rows = indptr.shape[0] - 1
        batched = x.ndim == 2
        if data.size == 0:
            shape = (x.shape[0], rows) if batched else (rows,)
            return np.zeros(shape, dtype=np.int64)
        shape = (x.shape[0], data.shape[0]) if batched else data.shape
        fbuf = bufs.get(shape)
        if fbuf is None:
            fbuf = bufs[shape] = np.empty(shape, dtype=np.float64)
        if batched:
            np.multiply(data[np.newaxis, :], x[:, indices], out=fbuf)
        else:
            np.multiply(data, x[indices], out=fbuf)
        fbuf *= scale
        np.rint(fbuf, out=fbuf)
        if _scipy_sparse is not None:
            # Segment-sum as one C-level CSR matvec against a cached
            # (rows, nnz) structure-only selector: row i's segment sums
            # fbuf[indptr[i]:indptr[i+1]].  The in-range proof covers
            # any association, so SciPy's sequential per-row fold is
            # the exact integer sum, empty rows included.
            sel = bufs.get("csr_segsum")
            if sel is None:
                sel = bufs["csr_segsum"] = _scipy_sparse.csr_matrix(
                    (
                        np.ones(data.shape[0], dtype=np.float64),
                        np.arange(data.shape[0], dtype=np.int64),
                        indptr,
                    ),
                    shape=(rows, data.shape[0]),
                )
            if batched:
                return (sel @ fbuf.T).T.astype(np.int64)
            return (sel @ fbuf).astype(np.int64)
        geom = bufs.get("csr_geom")
        if geom is None:
            nz = indptr[:-1] < indptr[1:]
            # Row starts of the non-empty rows partition the data array
            # exactly (empty rows occupy no space), so one reduceat
            # yields every non-empty row's segment sum.
            starts = np.ascontiguousarray(indptr[:-1][nz])
            geom = bufs["csr_geom"] = (nz, bool(nz.all()), starts)
        nz, all_full, starts = geom
        sums = np.add.reduceat(fbuf, starts, axis=-1).astype(np.int64)
        if all_full:
            return sums
        shape = (x.shape[0], rows) if batched else (rows,)
        out = np.zeros(shape, dtype=np.int64)
        out[..., nz] = sums
        return out

    def scale_encode_inrange(
        self,
        arr: np.ndarray,
        factor: float,
        scale: float,
        bufs: dict,
    ) -> np.ndarray:
        """Fused ``encode(factor * arr)`` with the clip *skipped*.

        Computes ``rint((arr * factor) * scale)`` as int64 words —
        callable only when the caller proved every encoded word in
        range (the ``scale_add`` replay's peak-bound proof), where the
        reference encode's finiteness scan and clip are both no-ops.
        ``bufs`` is per-call-site scratch keyed by shape, reused across
        iterations; the returned array is one of those buffers, so the
        caller must consume it before the next call.
        """
        pair = bufs.get(arr.shape)
        if pair is None:
            pair = (
                np.empty(arr.shape, dtype=np.float64),
                np.empty(arr.shape, dtype=np.int64),
            )
            bufs[arr.shape] = pair
        fbuf, qbuf = pair
        np.multiply(arr, factor, out=fbuf)
        fbuf *= scale
        np.rint(fbuf, out=fbuf)
        np.copyto(qbuf, fbuf, casting="unsafe")
        return qbuf

    # ------------------------------------------------------------------
    # Chain compilation hook
    # ------------------------------------------------------------------
    def compile_chain(self, steps) -> object | None:
        """Optionally fuse a dataflow chain of compiled steps into one
        backend-specific callable ``fn(engine, head_args) -> [outputs]``.

        ``None`` (the default) makes the replay executor run the chain
        step-by-step through the generic speculative harness — still
        one Python entry per chain head, with tail dispatches served
        from memoized results.  A backend may return a fused callable
        for patterns it recognizes; it must be bit-identical to the
        stepwise execution.
        """
        return None

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.name} ({self.version})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, version={self.version!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, *, replace: bool = False) -> KernelBackend:
    """Register a backend instance under its :attr:`~KernelBackend.name`.

    Raises:
        ValueError: on a duplicate name unless ``replace=True``.
    """
    name = backend.name
    if not name or name == "abstract":
        raise ValueError(f"backend needs a concrete name, got {name!r}")
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> KernelBackend:
    """The registered backend named ``name``.

    Raises:
        ValueError: for an unknown name (lists what *is* available, so
            a typo or a missing optional dependency fails loudly).
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            f"{list(available_backends())}"
        )
    return backend


def resolve_backend_name(spec: "str | KernelBackend | None" = None) -> str:
    """The effective backend name for ``spec``.

    Precedence: explicit ``spec`` > ``$REPRO_BACKEND`` >
    :data:`DEFAULT_BACKEND`.  The name is validated against the
    registry, so an env var naming an unavailable backend fails loudly
    instead of silently running the default.
    """
    if isinstance(spec, KernelBackend):
        return get_backend(spec.name).name if spec.name in _BACKENDS else spec.name
    name = spec if spec is not None else os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    return get_backend(name).name


def resolve_backend(spec: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve ``spec`` to a backend instance (see
    :func:`resolve_backend_name` for the precedence)."""
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    return get_backend(spec)
