r"""Diffusive (state-diffusion) trajectory unraveling of the master equation.

Two Euler-Maruyama schemes over complex Wiener increments dxi_j with
E[dxi_i dxi_j^*] = delta_ij dt:

normalized
    d psi = -i H psi dt
            + (1/2) sum_j [2 <L_j^dag> L_j - L_j^dag L_j - <L_j><L_j^dag>] psi dt
            + sum_j (L_j - <L_j>) psi dxi_j
    with <X> = <psi|X|psi> for the unit-norm state; the state is
    renormalized after every step (the continuum equation preserves the norm
    pathwise, the discrete step only to O(dt)).

quasi_linear
    d psi = -i H psi dt + sum_j L_j psi (dxi_j + <L_j^dag> dt)
            - (1/2) sum_j L_j^dag L_j psi dt
    where <L_j^dag> is taken in the normalized direction of the current
    state; the propagated state is never renormalized and the estimator
    divides by its squared norm instead.

Both schemes run unchanged on the doubled space.  :class:`QsdEngine` steps
a batch of rows, each a ket of width d or a stacked doubled state of width
2d.  The duplicated operators are block-diagonal, so a doubled row is
stepped block by block with the model's own d x d operators, both blocks
driven by the same noise, and expectations and norms are summed over both
blocks; the duplicated model (``extend_model``) is never built.  Ensemble
averages of the block inner product 2 <upper|A|lower> then estimate
Heisenberg-picture matrix elements between the two stacked states
(:mod:`qsdsim.correlations`).  There is no single-trajectory stepper: one
trajectory is a batch of one row.

The drift is ``LindbladModel.generator``; the step-size check, the dt grid
rule and the per-step noise come from :mod:`qsdsim.noise`.  A run is
stepped in this process, or, when its steps are heavy (``_SPLIT_GATE``:
every two-level batch of 1024 kets or 512 doubled rows with one channel,
and up), split: a forked column worker steps the upper part of the batch
while the caller steps the lower, each drawing its own rows' noise, with
the bits of the unsplit run (``QsdEngine._split``).  One helper,
:func:`_column_worker`, forks that worker, shares its arrays and continues
its streams, for this engine and for the coupled pair of
:mod:`qsdsim.gisin`, with one gate for both (:func:`_heavy`).
"""

import contextlib
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InstabilityError
from .hilbert import LindbladModel
from .noise import (
    _STATE_WORDS,
    NoiseStream,
    _can_fork,
    _forked,
    _restore,
    _save,
    _shared,
    check_step,
    wiener_steps,
)

__all__ = [
    "SCHEMES",
    "SdeConfig",
    "QsdEngine",
    "complex_standard_error",
]

SCHEMES = ("normalized", "quasi_linear", "jump")
_DIFFUSIVE = SCHEMES[:2]

# a QsdEngine run or coupled-pair chunk whose stacked product takes at
# least this many complex multiply-adds per step (rows of the stack x dim x
# k x batch), on a batch of at least _SPLIT_MIN_BATCH rows, is split with a
# forked column worker.  At d = 2 with one channel that is every batch of
# 1024 kets or 512 doubled rows and up: each batch of the g1 workloads and
# every coupled-pair chunk of gisin-compare (see tools/dscan.py)
_SPLIT_GATE = 2**13
_SPLIT_MIN_BATCH = 128
# the split point is a multiple of this many rows: BLAS rounds a column
# differently only in its kernel's column remainder, which a split at such a
# multiple leaves where it was
_SPLIT_ALIGN = 64

# what the column worker's header says it has written into the mapping
_RECORD, _DONE, _FAILED = 0, 1, 2
_MESSAGE_BYTES = 1024


@dataclass(frozen=True)
class SdeConfig:
    """Step size and unraveling of a trajectory estimate.

    ``scheme`` selects the engine: "normalized" and "quasi_linear" are the
    diffusive schemes of :class:`QsdEngine`, "jump" is the jump unraveling
    of :class:`qsdsim.jumps.JumpEngine`.  The normalized and jump engines
    renormalize the state every step; the quasi-linear one never rescales
    it, and the estimators divide by its squared norm instead.
    """

    dt: float
    scheme: str = "normalized"

    def __post_init__(self):
        check_step(self.dt)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")


class QsdEngine:
    """Batched Euler-Maruyama propagation of many trajectories at once.

    Each row of the (batch, dim) input is one trajectory; a row of width
    2 dim is a doubled state, whose two blocks are stepped with the model's
    own d x d operators under the row's shared noise, expectations and norms
    summed over both blocks.  Row i draws its noise from streams[i],
    in the same order as stepwise ``NoiseStream.wiener`` draws, so batching
    never changes the noise a trajectory sees.  Overflow during a step is not
    warned about: it makes a norm non-finite, which raises InstabilityError
    naming the first trajectory it hit.

    Internally the batch is column-major, a (dim, k, batch) array with k = 1
    for kets and k = 2 for doubled states, so every elementwise operation and
    every sum over the dimension runs on contiguous rows of length batch.
    A step is one product with the stacked (dim (1 + n_channels), dim)
    matrix of the Euler drift I + dt G and every L_j, and one norm.
    """

    def __init__(self, model: LindbladModel, dt: float, scheme: str = "normalized"):
        if scheme not in _DIFFUSIVE:
            raise ValueError(
                f"scheme {scheme!r} is not a diffusive scheme, expected one of {_DIFFUSIVE}"
            )
        self.dt = check_step(dt)
        self.scheme = scheme
        self.dim = model.dim
        self.n_channels = model.n_channels
        self._stack = _euler_stack(model, dt)

    def _step(self, x: np.ndarray, inv_norm2, dxi: np.ndarray, products, conj, scratch):
        """One step of column-major states ``x`` (dim, k, batch).

        ``inv_norm2`` holds each trajectory's 1 / <psi|psi>, or is None for
        unit states; ``dxi`` holds the (n_channels, batch) increments.  The
        buffers come from :meth:`_work`: the step's stacked product goes
        into ``products``, whose block 0 is the new state, so it must not
        hold ``x``.
        """
        y = _stacked(self._stack, x, products)
        # <psi|L_j psi>, shape (c, batch)
        ell = np.multiply(np.conjugate(x, out=conj), y[1:], out=scratch).sum(axis=(1, 2))
        if inv_norm2 is not None:
            ell *= inv_norm2
        return _euler_update(x, y, ell, ell.conj(), dxi, self.dt, self.scheme == "normalized", conj)

    def _work(self, x: np.ndarray):
        """Two product buffers for the stacked products of column-major
        ``x``, and a conjugate and a scratch buffer, allocated once for a
        whole run: the state lives in block 0 of one product buffer while
        the next step writes into the other."""
        dim, k, batch = x.shape
        products = np.empty((2, len(self._stack) // dim, dim, k, batch), dtype=complex)
        conj = np.empty_like(x)
        scratch = np.empty((self.n_channels, dim, k, batch), dtype=complex)
        return products, conj, scratch

    def run(
        self,
        states: np.ndarray,
        streams: Sequence[NoiseStream],
        n_steps: int,
        record_steps: Sequence[int] = (),
        on_record=None,
    ) -> np.ndarray:
        """Advance ``states`` by ``n_steps`` steps of size dt.

        ``record_steps`` lists step counts (0 = before stepping) at which
        ``on_record(slot, states, norms)`` fires; for the normalized scheme
        ``states`` is post-renormalization and ``norms`` holds the
        pre-renormalization norms of the step landing there.

        A batch whose steps are heavy enough (see :func:`_heavy`) is
        stepped in two parts on two CPUs, with the same bits (see
        :meth:`_split`).
        """
        x = _columns(states, self.dim)
        if len(streams) != x.shape[2]:
            raise ValueError(
                f"need one stream per row: {len(streams)} streams, batch {x.shape[2]}"
            )
        slots = _record_slots(record_steps, n_steps)
        if n_steps > 0 and _heavy(self._stack, x):
            split = self._split(x, streams, n_steps, slots, on_record)
            if split is not None:
                return _rows(split)
        increments = wiener_steps(streams, n_steps, self.n_channels, self.dt)
        return _rows(self._advance(x, increments, n_steps, slots, on_record, streams))

    def _split(self, x, streams, n_steps, slots, on_record):
        """Step trajectories [h, batch) of column-major ``x`` in a forked
        column worker while this process steps [0, h) (see
        :func:`_column_worker`); return the stepped (dim, k, batch) states,
        or None where ``fork`` fails.

        At every record slot the worker writes its rows and norms into one
        shared buffer and this process hands all rows to ``on_record``,
        then frees the buffer.  At the end the worker writes its final
        rows.  An instability in either part raises the error of the
        unsplit run: the earliest step, then the check made first, then the
        lowest row.
        """
        dim, k, batch = x.shape
        h = _split_point(batch)
        tail = batch - h
        # the worker's rows (a record's, then its final ones) and their
        # norms; its post's kind, then a record's slot or a failure's
        # message length and (step, check, row); that message
        specs = (
            ((dim * k * tail,), complex),
            ((tail,), float),
            ((5,), np.int64),
            ((_MESSAGE_BYTES,), np.uint8),
        )

        def work(increments, arrays, ready, free):
            rows, norms, header, message = arrays
            posted = False

            def claim():
                # the caller frees the mapping once it has read a post
                nonlocal posted
                if posted and not os.read(free, 1):
                    raise EOFError("the caller has gone")
                posted = True

            def record(slot, states, state_norms):
                claim()
                rows[:] = states.ravel()
                norms[:] = state_norms
                header[:2] = (_RECORD, slot)
                os.write(ready, b"\0")

            try:
                out = self._advance(x[:, :, h:].copy(), increments, n_steps, slots,
                                    record if on_record is not None else None, streams[h:])
            except InstabilityError as err:
                claim()
                text = str(err).encode()[:_MESSAGE_BYTES]
                message[: len(text)] = np.frombuffer(text, np.uint8)
                step, check, row = err.order
                header[:] = (_FAILED, len(text), step, check, h + row)
                return
            claim()
            rows[:] = out.ravel()
            header[0] = _DONE

        with _column_worker(streams, h, n_steps, self.n_channels, self.dt, specs, work) as split:
            if split is None:
                return None
            rows, norms, header, message = split.arrays
            child = split.child

            def failure():
                """None when the worker's post says it finished, else its
                failure's order and error."""
                if header[0] == _DONE:
                    return None
                text = message[: header[1]].tobytes().decode()
                return tuple(int(v) for v in header[2:]), InstabilityError(text)

            def outcome():
                """:func:`failure` of the worker's last post, freeing every
                record it posts before it."""
                while True:
                    child.wait("the end of its run")
                    if header[0] != _RECORD:
                        return failure()
                    child.release()

            def merged(slot, states, state_norms):
                child.wait(f"record {slot + 1} of {len(slots)}")
                if header[0] == _FAILED:
                    raise failure()[1]
                on_record(
                    slot,
                    np.concatenate([states, rows.reshape(tail, -1)]),
                    np.concatenate([state_norms, norms]),
                )
                child.release()

            try:
                head = self._advance(x[:, :, :h].copy(), split.increments, n_steps, slots,
                                     merged if on_record is not None else None, streams[:h])
            except InstabilityError as err:
                # the worker's error, or one from on_record, stands as it is
                if not hasattr(err, "order"):
                    raise
                failed = outcome()
                if failed is not None and failed[0] < err.order:
                    raise failed[1] from None
                raise
            failed = outcome()
            if failed is not None:
                raise failed[1]
            split.restore()
            return np.concatenate([head, rows.reshape(dim, k, tail)], axis=2)

    def _advance(self, x, increments, n_steps, slots, on_record=None, streams=None):
        """Step column-major ``x`` once per (n_channels, batch) entry of
        ``increments``, checking every norm; the loop behind :meth:`run`."""
        renorm = self.scheme == "normalized"
        norm2 = _real_inner(x, x)
        if 0 in slots and on_record is not None:
            on_record(slots[0], _rows(x), np.sqrt(norm2))
        if n_steps == 0:
            return x
        if not np.all(np.isfinite(norm2)):
            raise _unstable_row(
                "state norm became non-finite during propagation", ~np.isfinite(norm2), streams
            )
        if np.any(norm2 == 0.0):
            raise _unstable_row(
                "state norm underflowed to zero during propagation", norm2 == 0.0, streams,
                check=1,
            )
        inv_norm2 = 1.0 / norm2
        products, conj, scratch = self._work(x)
        free = 0  # the product buffer that does not hold the state
        # a record runs under the caller's error state, not the loop's
        record_state = np.geterr()
        # overflow shows up as a non-finite norm, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            for done, dxi in enumerate(increments, start=1):
                x = self._step(x, inv_norm2, dxi, products[free], conj, scratch)
                free ^= 1
                norm2 = _real_inner(x, x)
                if not (norm2.min() > 0.0 and norm2.max() < np.inf):
                    if not np.all(np.isfinite(norm2)):
                        raise _unstable_row(
                            f"non-finite state norm after step {done}", ~np.isfinite(norm2),
                            streams, step=done,
                        )
                    if renorm:
                        raise _unstable_row(
                            f"zero state norm after step {done}", norm2 == 0.0, streams,
                            step=done, check=1,
                        )
                    if done < n_steps:
                        raise _unstable_row(
                            "state norm underflowed to zero during propagation",
                            norm2 == 0.0, streams, step=done, check=1,
                        )
                norms = np.sqrt(norm2)
                if renorm:
                    x *= 1.0 / norms
                    inv_norm2 = None
                elif done < n_steps:  # a zero norm is allowed after the last step
                    inv_norm2 = 1.0 / norm2
                if done in slots and on_record is not None:
                    with np.errstate(**record_state):
                        on_record(slots[done], _rows(x), norms)
        return x


def _euler_stack(model: LindbladModel, dt: float) -> np.ndarray:
    """The stacked (dim (1 + n_channels), dim) matrix (I + dt G; L_1; ...; L_c):
    one product with it gives a batch's Euler drift and every L_j psi."""
    drift = np.eye(model.dim) + dt * model.generator()
    return np.concatenate([drift] + [op.matrix for op in model.lindblads])


def _stacked(stack: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (m, dim, k, batch) products of each (dim, dim) block of the stacked
    (m dim, dim) ``stack`` with every block of column-major ``x``, written
    into ``out``, a C-contiguous array of that shape, when given."""
    if out is None:
        return (stack @ x.reshape(x.shape[0], -1)).reshape(-1, *x.shape)
    np.matmul(stack, x.reshape(x.shape[0], -1), out=out.reshape(len(stack), -1))
    return out


def _heavy(stack: np.ndarray, x: np.ndarray) -> bool:
    """Whether a run of column-major ``x`` stepped with the stacked
    ``stack`` is split with a column worker: one step's stacked product
    must take at least ``_SPLIT_GATE`` multiply-adds, the batch must hold
    at least ``_SPLIT_MIN_BATCH`` rows, and the host must allow a fork
    (``noise._can_fork``)."""
    dim, k, batch = x.shape
    return (stack.shape[0] * dim * k * batch >= _SPLIT_GATE and batch >= _SPLIT_MIN_BATCH
            and _can_fork())


def _split_point(batch: int) -> int:
    """Where a column worker's rows begin: the multiple of ``_SPLIT_ALIGN``
    nearest half the batch, so that every row gets the bits of the unsplit
    run."""
    return _SPLIT_ALIGN * round(batch / (2 * _SPLIT_ALIGN))


class _Split(NamedTuple):
    """The caller's side of :func:`_column_worker`."""

    increments: object  # the noise of rows [0, h), drawn in process
    arrays: list  # the arrays of ``specs``, shared with the worker
    child: object  # the worker's ``noise._Child``
    restore: object  # continues the worker's streams here


@contextlib.contextmanager
def _column_worker(streams, h: int, n_steps: int, n_channels: int, dt: float, specs, work):
    """Split a batch whose row i draws from ``streams[i]``: a forked column
    worker steps rows [h, B) while the caller steps rows [0, h), each side
    drawing its own rows' noise (``noise.wiener_steps``).  Yields a
    :class:`_Split`, or None where ``fork`` fails.

    ``specs`` lists the (shape, dtype) of arrays the two processes share,
    in order of falling item size.  The worker runs ``work(increments,
    arrays, ready, free)`` with its rows' noise, those arrays and its ends
    of the pipes of ``noise._forked``; once it returns, the worker writes
    its streams' PCG64 states and one byte to ``ready``.  After the caller
    has read that byte, ``restore()`` sets the worker's streams to those
    states and counts their draws, so that they continue as if they had
    been drawn here.  The worker is killed and reaped however the block
    ends.
    """
    theirs = streams[h:]
    words, *arrays = _shared(((len(theirs), _STATE_WORDS), np.uint64), *specs)

    def body(ready, free):
        work(wiener_steps(theirs, n_steps, n_channels, dt), arrays, ready, free)
        _save(theirs, words)
        os.write(ready, b"\0")

    def restore():
        _restore(theirs, words)
        for stream in theirs:
            stream.draws += 2 * n_channels * n_steps

    with _forked("column worker", body) as child:
        if child is None:
            yield None
        else:
            increments = wiener_steps(streams[:h], n_steps, n_channels, dt)
            yield _Split(increments, arrays, child, restore)


def _euler_update(x, y, e, m, dxi, dt: float, compensate: bool, scratch=None) -> np.ndarray:
    """The Euler-Maruyama step y[0] + sum_j y[j+1] (dxi_j + m_j dt) of
    column-major ``x``, where ``y = _stacked(euler stack, x)``; with
    ``compensate`` it also subtracts x sum_j e_j (dxi_j + (dt/2) m_j).

    ``e`` and ``m`` broadcast against the (n_channels, k, batch) or
    (n_channels, batch) coefficients: the state's <L_j> and <L_j>^* for
    :class:`QsdEngine`, the cross coefficients and their block-swapped
    conjugates for the coupled pair.  Writes into ``y[0]``, and each term
    into ``scratch``, an array shaped like ``x``, when given.
    """
    out = y[0]
    # complex products stay out of place: numpy's in-place complex
    # multiply rounds differently for different lengths, and a
    # trajectory must not depend on the size of its batch
    coeff = m * dt + dxi
    for l_x, c_j in zip(y[1:], coeff):
        out += np.multiply(l_x, c_j, out=scratch)
    if compensate:
        # sum_j e_j dxi_j + (dt/2) e_j m_j, as e_j (coeff_j - (dt/2) m_j);
        # the increments are a strided view, read once above
        terms = (coeff - m * (0.5 * dt)) * e
        out -= np.multiply(x, terms[0] if len(terms) == 1 else terms.sum(axis=0), out=scratch)
    return out


def _columns(states, dim: int) -> np.ndarray:
    """(batch, k dim) rows, k = 1 for kets and 2 for doubled states, as a
    new C-contiguous (dim, k, batch) array: [i, blk, b] is amplitude i of
    block blk of trajectory b."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] not in (dim, 2 * dim):
        raise ValueError(
            f"states of shape {states.shape} match neither engine dimension {dim} "
            f"nor its doubled space {2 * dim}"
        )
    batch, width = states.shape
    return states.reshape(batch, width // dim, dim).transpose(2, 1, 0).copy()


def _rows(x: np.ndarray) -> np.ndarray:
    """The (batch, k dim) rows of column-major states, as a new array."""
    return np.array(x.transpose(2, 1, 0).reshape(x.shape[2], -1))


def _real_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re <x|y> for each trajectory of column-major ``x`` and ``y``, summed
    over all blocks."""
    # float views (dim, k, 2 batch): real, imaginary, real, ...
    sums = np.einsum("ijb,ijb->b", x.view(float), y.view(float))
    return sums[0::2] + sums[1::2]


def _record_slots(record_steps, n_steps: int) -> dict:
    """Slot of each distinct step count in ``record_steps``, in order."""
    record = sorted(set(int(k) for k in record_steps))
    if record and (record[0] < 0 or record[-1] > n_steps):
        raise ValueError("record steps must lie within [0, n_steps]")
    return {k: i for i, k in enumerate(record)}


def _unstable_row(
    what: str, bad: np.ndarray, streams=None, step: int = 0, check: int = 0
) -> InstabilityError:
    """InstabilityError ``what``, naming the trajectory of the first row
    flagged in ``bad`` when the rows' noise ``streams`` are known.

    Its ``order`` is (step, check, row): the step it was found after (0
    before stepping), the check's rank among those run on that step (the
    finiteness check first) and the row.  Of two parts of a batch, the
    error with the smaller order is the one the whole batch raises.
    """
    row = int(np.argmax(bad))
    if streams is not None:
        what += f" (first at trajectory {streams[row].trajectory_index})"
    error = InstabilityError(what)
    error.order = (step, check, row)
    return error


def complex_standard_error(samples: np.ndarray) -> float:
    """Standard error of a complex sample mean.

    Treats each value as the 2-vector (Re, Im) and returns
    sqrt((var(Re) + var(Im)) / n) with unbiased componentwise variances;
    zero for a single sample.
    """
    samples = np.asarray(samples)
    n = samples.shape[0]
    if n < 2:
        return 0.0
    return float(
        np.sqrt((np.var(samples.real, ddof=1) + np.var(samples.imag, ddof=1)) / n)
    )
