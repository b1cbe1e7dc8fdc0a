"""Lattice windows and the killed-walk kernel every oracle applies.

A window is the open-cone points y with |y|_inf <= L, at every stage (the
harmonic one takes L = its whitened radius over |M|_inf); ``walk_reach`` alone
turns a horizon into a radius L.  Arrays live on the full box, C-ordered; a
boolean mask selects the window points.
``make_grid`` pads every box by the law's longest step, so each one-step
neighbour of a window cell is a box cell, and it records which box cells lie
in the cone (``in_cone``).  Every stage reads the cone from there; none
repeats the membership pass.  Three questions are answered here alone:
``admit`` whether a stage may read a lattice point (each must lie in the open
cone, then on the window of the grid it is read on, but a DP start sizes its
first window; a refusal names the config key), ``budget_window`` how large a
window ``MAX_BYTES`` holds, and ``walk_reach`` how far a horizon reaches.

``KilledKernel`` is the one-step operator of the walk killed outside the
window: a step moves mass by +z with probability p_z, mass landing off the
mask is killed, and a cell whose step leaves the window while staying in the
cone *leaks* (the window truncates it rather than the cone killing it); one
whose step leaves the cone *exits*.  The DP evolution, the survival scan, the
harmonic fixed point, the truncated QSD kernel, the exit-position law and the
conditioned chain all step through it, by the flat offset k = z . strides of
each step on the flattened box.  The padding makes that exact on the mask (see
``KilledKernel``).  ``shift_add``, a per-axis clipped shift, only maps a table
between boxes of different shapes (``WindowGrid.place``).  Every sum over a
window vector goes through ``dot`` or ``norm``, whose ``einsum`` numpy runs
without BLAS: OpenBLAS threads a dot of over 10,000 elements, so its rounding
would follow the thread count, and a cold process can stall while its threads
wake.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, WindowTooSmallError
from .model import cone_contains

MAX_BYTES = 2**30   # the one memory limit: budget_window holds every stage's window box to it


@dataclass
class WindowGrid:
    """Integer box ``lo + [0..shape)`` with the window mask and the cone on it."""

    lo: np.ndarray          # (d,) lower corner
    shape: tuple            # box shape
    mask: np.ndarray        # bool array over the box, True on window points
    coords: np.ndarray      # (*shape, d) integer coordinates
    in_cone: np.ndarray     # bool array over the box, True on open-cone points
    pad: int                # box cells beyond the window on every side

    @property
    def dim(self):
        return len(self.shape)

    @property
    def n_states(self):
        return int(self.mask.sum())

    def points(self):
        """Masked lattice points as an (N, d) array in C order."""
        return self.coords[self.mask]

    def contains(self, x):
        """Whether lattice point x is a window point: inside the box and on the mask."""
        return self.value_at(self.mask, x) > 0.0

    def value_at(self, arr, x):
        """Value of a box array at lattice point x (0.0 outside the box)."""
        x = np.asarray(x, dtype=int)
        off = x - self.lo
        if np.any(off < 0) or np.any(off >= np.asarray(self.shape)):
            return 0.0
        return float(arr[tuple(off)])

    def place(self, table, lo, shape):
        """The masked values of ``table`` on the box ``lo + [0..shape)``.

        Lattice points are matched through the two ``lo`` offsets; points of
        the target box outside this window carry zero.
        """
        out = np.zeros(shape)
        shift_add(out, np.where(self.mask, table, 0.0), self.lo - np.asarray(lo), 1.0)
        return out


class Csr(NamedTuple):
    """A sparse matrix as compressed sparse rows: row i has the entries
    ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def rmatvec(self, v):
        """v @ A: a measure on the rows pushed to the columns."""
        weights = self.data * np.repeat(v, np.diff(self.indptr))   # v at each entry's row
        return np.bincount(self.indices, weights=weights, minlength=self.shape[1])


def make_grid(cone, L, law):
    """Window grid for ``{y in cone : |y|_inf <= L}``, the window of every stage.

    The box extends one longest step of ``law`` beyond the window on every
    side, so each one-step neighbour of a window point is a box cell.
    """
    reach = int(np.floor(L))
    pad = int(np.max(np.abs(law.support)))
    d = cone.dim
    if cone.kind == "orthant":
        # pad also extends below 1 so one-step exit positions stay in the box
        lo = (1 - pad) * np.ones(d, dtype=int)
        shape = tuple([reach + 2 * pad] * d)
    else:
        lo = -(reach + pad) * np.ones(d, dtype=int)
        shape = tuple([2 * (reach + pad) + 1] * d)
    coords = np.moveaxis(np.indices(shape), 0, -1) + lo
    pts = coords.reshape(-1, d)
    in_cone = cone_contains(cone, pts).reshape(shape)
    mask = in_cone & (np.max(np.abs(pts), axis=1) <= L).reshape(shape)
    return WindowGrid(lo=lo, shape=shape, mask=mask, coords=coords, in_cone=in_cone, pad=pad)


def admit(cone, points, name, grid=None, window=None):
    """``points``, one lattice point or an (N, d) array, as integers once each lies in the
    open cone and then, given ``grid``, on its window, which ``window`` names ("harmonic
    window L = 72"); else a ConfigError naming ``name`` (a config key, or "start")."""
    pts = np.asarray(points, dtype=int)
    if pts.shape[-1:] != (cone.dim,):
        raise ConfigError(f"{name} {pts.tolist()} needs {cone.dim} coordinates")
    for x in pts.reshape(-1, cone.dim).tolist():
        if not cone_contains(cone, x)[0]:
            raise ConfigError(f"{name} {x} lies outside the open {cone.kind} cone")
        if grid is not None and not grid.contains(x):
            raise ConfigError(f"{name} {x} lies outside the {window}")
    return pts


def budget_window(cone, pad, cell_bytes):
    """The largest window L whose ``make_grid`` box, padded by ``pad``, fits
    ``MAX_BYTES`` at ``cell_bytes`` bytes a box cell (below 0 when none does)."""
    d = cone.dim
    side = round((MAX_BYTES / cell_bytes) ** (1 / d))
    if side ** d * cell_bytes > MAX_BYTES:        # the float root rounded up
        side -= 1
    return side - 2 * pad if cone.kind == "orthant" else (side - 1) // 2 - pad


def grow_window(build, L):
    """``build(L)``, rebuilt at the ``suggested_L`` of each WindowTooSmallError it
    raises; an error that suggests None propagates."""
    while True:
        try:
            return build(L)
        except WindowTooSmallError as exc:
            if exc.suggested_L is None:
                raise
            L = exc.suggested_L   # built once the error, holding the failed window, is freed


def walk_reach(starts, n, law, tol=0.0):
    """The max-norm n steps of ``law`` from ``starts`` stay within: surely |x| + n max|z|
    at ``tol`` = 0, else, but for probability ``tol``, max_i |x_i| + a_i + n |mu_i| capped
    at the sure reach: by Freedman's inequality the steps +-(z_i - mu_i) <= R_i, of
    variance v_i, pass a_i = R_i l/3 + sqrt((R_i l/3)^2 + 2 n v_i l) w.p. <= e^-l = tol/2d."""
    sure = int(np.max(np.abs(starts))) + n * int(np.max(np.abs(law.support)))
    if tol == 0.0:
        return sure
    mu, ell = law.mean(), np.log(2 * law.dim / tol)
    r = np.abs(law.support - mu).max(axis=0) * ell / 3
    a = r + np.sqrt(r ** 2 + 2 * n * (law.probs @ (law.support - mu) ** 2) * ell)
    far = np.abs(np.reshape(starts, (-1, law.dim))).max(axis=0) + a + n * np.abs(mu)
    return min(sure, int(np.ceil(far.max())))


def dot(a, b):
    """The window vector ``a``, or each row of a stack of them, dotted with ``b``."""
    return np.einsum("...i,i->...", a, b)


def norm(a):
    return np.sqrt(dot(a, a))


def shift_add(out, arr, z, w):
    """out[x] += w * arr[x - z] wherever both indices stay inside their boxes."""
    src = []
    dst = []
    for zi, n, m in zip(z, arr.shape, out.shape):
        zi = int(zi)
        start = zi if zi > 0 else 0
        stop = zi + n if zi + n < m else m
        if stop <= start:
            return
        dst.append(slice(start, stop))
        src.append(slice(start - zi, stop - zi))
    out[tuple(dst)] += w * arr[tuple(src)]


class KilledKernel:
    """One step of ``law`` on ``grid``, killed off the window mask.

    Arrays are C-ordered over the grid's box, which must be padded for
    ``law`` (``make_grid`` pads it).  A step of z shifts the flattened box
    by the flat offset k = z . strides, so one step is a few whole-box
    multiply-adds written in place: the first shift straight into ``out``,
    each further one through a scratch buffer.  A flat shift wraps from one
    row of the box into the next, but the padding keeps that harmless.
    Every one-step neighbour of a mask cell is a box cell reached without
    wrapping, so each mask cell gets exactly the terms, in the order of the
    law's support, that a per-axis clipped shift gives it.  A wrapped term
    adds to a cell off the mask and reads a cell off the mask.  Hence
    ``forward``, ``backward`` and the mask cells of ``push`` and ``pull``
    equal the per-axis stencil exactly for any input, and ``push`` and
    ``pull`` equal it on every cell for an input that is zero off the mask
    (a wrapped term is then an exact +0.0).  Only the sign of a zero can
    differ: the first shift is written, not added to +0.0.
    """

    def __init__(self, grid, law):
        self.grid = grid
        self.law = law
        self._off = ~grid.mask
        strides = np.cumprod((grid.shape[1:] + (1,))[::-1])[::-1]
        self._k = law.support @ strides        # flat offset of each step
        self._push = self._moves(self._k)
        self._pull = self._moves(-self._k)
        self._tmp = np.empty(grid.mask.size)

    def _moves(self, offsets):
        """(destination, source, uncovered strip, p) slices of out[i] += p a[i - k]."""
        n = self.grid.mask.size
        moves = []
        for k, p in zip(offsets.tolist(), self.law.probs.tolist()):
            if k >= 0:
                moves.append((slice(k, n), slice(0, n - k), slice(0, k), p))
            else:
                moves.append((slice(0, n + k), slice(-k, n), slice(n + k, n), p))
        return moves

    def _step(self, a, moves, out):
        if np.shape(a) != self.grid.shape:
            raise ValueError(f"array of shape {np.shape(a)} is not the kernel's box "
                             f"{self.grid.shape}")
        if out is None:
            out = np.empty(self.grid.shape)
        src, dst, tmp = np.ravel(a), out.reshape(-1), self._tmp
        (d0, s0, strip, p0), *rest = moves
        np.multiply(src[s0], p0, out=dst[d0])
        dst[strip] = 0.0
        for d, s, _, p in rest:
            t = tmp[d]
            np.multiply(src[s], p, out=t)
            dst[d] += t
        return out

    def push(self, a, out=None):
        """Unmasked forward step: out[y] = sum_z p_z a[y - z] (see the class note)."""
        return self._step(a, self._push, out)

    def pull(self, a, out=None):
        """Unmasked backward step: out[x] = sum_z p_z a[x + z] (see the class note)."""
        return self._step(a, self._pull, out)

    def forward(self, a, out=None):
        """Forward step of a measure, zeroed off the mask."""
        out = self.push(a, out)
        np.copyto(out, 0.0, where=self._off)
        return out

    def backward(self, a, out=None):
        """Backward step of a function, zeroed off the mask."""
        out = self.pull(a, out)
        np.copyto(out, 0.0, where=self._off)
        return out

    @cached_property
    def states(self):
        """Flat box index of each window point, in C order."""
        return np.flatnonzero(self.grid.mask)

    def gather(self, a):
        """a[x + z] for each window point x (rows, C order) and step z (columns)."""
        return np.ravel(a)[self.states[:, None] + self._k[None, :]]

    def matrix(self):
        """Substochastic kernel P(x -> x+z) on the masked states, as compressed rows.

        Row i holds the steps from window point i that stay on the mask, its
        columns ascending (the order of the flat offsets k).
        """
        n = self.grid.n_states
        sidx = np.full(self.grid.mask.size, -1, dtype=np.int32)   # -1 off the mask
        sidx[self.states] = np.arange(n)
        by_k = np.argsort(self._k)
        cols = sidx[self.states[:, None] + self._k[by_k]]
        ok = cols >= 0
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(ok.sum(axis=1), out=indptr[1:])
        data = np.broadcast_to(self.law.probs[by_k], cols.shape)[ok]
        return Csr(data, cols[ok], indptr, (n, n))

    @cached_property
    def leak(self):
        """Per-cell probability of stepping out of the window while staying in the cone.

        Mass on such cells is truncated by the window, not killed by the
        cone; the DP monitors it to certify the window is large enough.  The
        padded box holds every one-step neighbour, so one backward step of the
        cone cells off the mask sees them all.
        """
        grid = self.grid
        return self.backward((grid.in_cone & ~grid.mask).astype(float))

    @cached_property
    def exit(self):
        """Per-cell probability of stepping out of the cone, exactly 0 where no step
        does; the DP records the mass it kills as each step's exit mass."""
        return self.backward((~self.grid.in_cone).astype(float))

    @cached_property
    def interior(self):
        """Window cells all of whose one-step neighbours stay in the window or die."""
        return self.grid.mask & (self.leak == 0.0)
