"""Lattice windows and the killed-walk kernel every oracle applies.

A window is an axis-aligned integer box intersected with an open cone.
Arrays live on the full box; a boolean mask selects the window points.
``make_grid`` pads every box by the law's longest step, so each one-step
neighbour of a window cell is a box cell, and it records which box cells lie
in the cone (``in_cone``).  Every stage reads the cone from there; none
repeats the membership pass.

``KilledKernel`` is the one-step operator of the walk killed outside the
window: a step moves mass by +z with probability p_z, mass landing off the
mask is killed, and a cell whose step leaves the window while staying in the
cone *leaks* (the window truncates it rather than the cone killing it).  The
DP evolution, the survival scan, the harmonic fixed point, the truncated QSD
kernel, the exit-position law and the conditioned chain all step through it;
``shift_add`` is the single stencil primitive underneath.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class WindowGrid:
    """Integer box ``lo + [0..shape)`` with the window mask and the cone on it."""

    lo: np.ndarray          # (d,) lower corner
    shape: tuple            # box shape
    mask: np.ndarray        # bool array over the box, True on window points
    coords: np.ndarray      # (*shape, d) integer coordinates
    in_cone: np.ndarray     # bool array over the box, True on open-cone points

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
        off = np.asarray(x, dtype=int) - self.lo
        return bool(np.all(off >= 0) and np.all(off < np.asarray(self.shape))
                    and self.mask[tuple(off)])

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


def make_grid(cone, L, law, M=None):
    """Window grid for ``{y in cone : max-norm of (M y or y) <= L}``.

    The box extends one longest step of ``law`` beyond the window on every
    side, so each one-step neighbour of a window point is a box cell.
    """
    from .model import cone_contains  # local import, avoids cycle

    if M is None:
        reach = int(np.ceil(L))
    else:
        Minv = np.linalg.inv(M)
        reach = int(np.ceil(L * np.max(np.abs(Minv).sum(axis=1))))
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
    if M is None:
        in_window = np.max(np.abs(pts), axis=1) <= L
    else:
        in_window = np.max(np.abs(pts @ M.T), axis=1) <= L
    mask = in_cone & in_window.reshape(shape)
    return WindowGrid(lo=lo, shape=shape, mask=mask, coords=coords, in_cone=in_cone)


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

    The grid's box must be padded for ``law`` (``make_grid`` pads it).
    """

    def __init__(self, grid, law):
        self.grid = grid
        self.law = law
        # shifts as plain ints: +z for push, -z for pull
        self._push = list(zip(law.support.tolist(), law.probs))
        self._pull = list(zip((-law.support).tolist(), law.probs))

    @staticmethod
    def _step(a, moves, out):
        if out is None:
            out = np.zeros(np.shape(a))
        else:
            out[...] = 0.0
        for z, p in moves:
            shift_add(out, a, z, p)
        return out

    def push(self, a, out=None):
        """Unmasked forward step: out[y] = sum_z p_z a[y - z]."""
        return self._step(a, self._push, out)

    def pull(self, a, out=None):
        """Unmasked backward step: out[x] = sum_z p_z a[x + z]."""
        return self._step(a, self._pull, out)

    def gather(self, a):
        """a[x + z] for each step z, stacked along a new last axis (0 beyond the box)."""
        out = np.zeros(np.shape(a) + (len(self._pull),))
        for j, (minus_z, _) in enumerate(self._pull):
            shift_add(out[..., j], a, minus_z, 1.0)
        return out

    def forward(self, a, out=None):
        """Forward step of a measure, zeroed off the mask."""
        out = self.push(a, out)
        out[~self.grid.mask] = 0.0
        return out

    def backward(self, a, out=None):
        """Backward step of a function, zeroed off the mask."""
        out = self.pull(a, out)
        out[~self.grid.mask] = 0.0
        return out

    def matrix(self):
        """Sparse substochastic kernel P(x -> x+z) on the masked states (CSR)."""
        from scipy import sparse  # local import: only ``qsd`` loads scipy.sparse
        grid = self.grid
        sidx = np.zeros(grid.shape, dtype=np.int64)     # 0 marks cells off the mask
        sidx[grid.mask] = np.arange(1, grid.n_states + 1)
        rows, cols, vals = [], [], []
        for minus_z, p in self._pull:
            dst = np.zeros(grid.shape, dtype=np.int64)
            shift_add(dst, sidx, minus_z, 1)     # dst[x] = sidx[x + z]
            ok = grid.mask & (dst > 0)
            rows.append(sidx[ok] - 1)
            cols.append(dst[ok] - 1)
            vals.append(np.full(int(ok.sum()), p))
        n = grid.n_states
        return sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)).tocsr()

    @cached_property
    def leak(self):
        """Per-cell probability of stepping out of the window while staying in the cone.

        Mass on such cells is truncated by the window, not killed by the
        cone; the DP monitors it to certify the window is large enough.  The
        padded box holds every one-step neighbour, so one pull of the cone
        cells off the mask sees them all.
        """
        grid = self.grid
        leak = self.pull((grid.in_cone & ~grid.mask).astype(float))
        leak[~grid.mask] = 0.0
        return leak

    @cached_property
    def interior(self):
        """Window cells all of whose one-step neighbours stay in the window or die."""
        return self.grid.mask & (self.leak == 0.0)
