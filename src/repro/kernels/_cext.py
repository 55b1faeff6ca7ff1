"""C provider for the compiled kernel tier.

Mirrors :mod:`repro.kernels._cores` statement for statement in C99 and
builds a shared object on first use with the system compiler (``cc``),
cached under a directory named by the hash of the source and the
compiler flags, so rebuilds only happen when either changes.  Compiled
**without** ``-ffast-math`` and with ``-ffp-contract=off`` (no fused
multiply-adds on targets that have them): the float kernels must execute
the same IEEE operation sequence as the numpy reference (libm ``sqrt`` is
correctly rounded, ``(int64_t)`` casts truncate like ``int()``), so
results stay bit-identical.

The trip kernel draws from numpy bit generators through the ``bitgen_t``
function pointers of numpy's public C interface; the source declares that
documented struct itself, so the build needs no numpy headers.

The adapters exported through :func:`load_cores` take the same array
arguments as the Python cores, which lets :mod:`repro.kernels._glue`
drive either provider unchanged.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from types import SimpleNamespace

import numpy as np

__all__ = ["load_cores", "build_error"]

C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

static void grid_build(const double *restrict pos, int64_t n, int64_t m, double inv_cell,
                       const int64_t *restrict src, int64_t S,
                       int64_t *restrict cellk, int64_t *restrict starts, int64_t n_starts,
                       int64_t *restrict srcsort)
{
    int64_t mm = m * m;
    for (int64_t k = 0; k < S; k++) {
        int64_t i = src[k];
        int64_t b = i / n;
        int64_t ci = (int64_t)(pos[2 * i] * inv_cell);
        if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
        int64_t cj = (int64_t)(pos[2 * i + 1] * inv_cell);
        if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
        int64_t c = b * mm + ci * m + cj;
        cellk[k] = c;
        starts[c + 2] += 1;
    }
    for (int64_t c = 1; c < n_starts; c++)
        starts[c] += starts[c - 1];
    for (int64_t k = 0; k < S; k++) {
        int64_t c = cellk[k];
        srcsort[starts[c + 1]] = src[k];
        starts[c + 1] += 1;
    }
}

void repro_any_within(const double *restrict pos, int64_t n, int64_t m, double inv_cell,
                      double r2, const int64_t *restrict src, int64_t S,
                      const int64_t *restrict qry, int64_t Q,
                      int64_t *restrict cellk, int64_t *restrict starts, int64_t n_starts,
                      int64_t *restrict srcsort, uint8_t *restrict out)
{
    grid_build(pos, n, m, inv_cell, src, S, cellk, starts, n_starts, srcsort);
    int64_t mm = m * m;
    for (int64_t k = 0; k < Q; k++) {
        int64_t i = qry[k];
        int64_t b = i / n;
        double qx = pos[2 * i];
        double qy = pos[2 * i + 1];
        int64_t ci = (int64_t)(qx * inv_cell);
        if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
        int64_t cj = (int64_t)(qy * inv_cell);
        if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
        int64_t i0 = ci > 0 ? ci - 1 : 0;
        int64_t i1 = ci < m - 1 ? ci + 1 : m - 1;
        int64_t j0 = cj > 0 ? cj - 1 : 0;
        int64_t j1 = cj < m - 1 ? cj + 1 : m - 1;
        int hit = 0;
        int64_t base = b * mm;
        for (int64_t ii = i0; ii <= i1 && !hit; ii++) {
            int64_t row = base + ii * m;
            for (int64_t t = starts[row + j0]; t < starts[row + j1 + 1]; t++) {
                int64_t j = srcsort[t];
                double dx = qx - pos[2 * j];
                double dy = qy - pos[2 * j + 1];
                if (dx * dx + dy * dy <= r2) { hit = 1; break; }
            }
        }
        if (hit) out[i] = 1;
    }
}

int64_t repro_contacts(const double *restrict pos, int64_t n, int64_t m, double inv_cell,
                       double r2, const int64_t *restrict src, int64_t S,
                       const int64_t *restrict qry, int64_t Q,
                       int64_t *restrict cellk, int64_t *restrict starts, int64_t n_starts,
                       int64_t *restrict srcsort, int64_t *restrict tally,
                       int64_t *restrict out_b, int64_t *restrict out_s,
                       int64_t *restrict out_q, int64_t cap)
{
    grid_build(pos, n, m, inv_cell, src, S, cellk, starts, n_starts, srcsort);
    int64_t mm = m * m;
    int64_t total = 0;
    for (int64_t k = 0; k < Q; k++) {
        int64_t i = qry[k];
        int64_t b = i / n;
        int64_t local = i - b * n;
        double qx = pos[2 * i];
        double qy = pos[2 * i + 1];
        int64_t ci = (int64_t)(qx * inv_cell);
        if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
        int64_t cj = (int64_t)(qy * inv_cell);
        if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
        int64_t i0 = ci > 0 ? ci - 1 : 0;
        int64_t i1 = ci < m - 1 ? ci + 1 : m - 1;
        int64_t j0 = cj > 0 ? cj - 1 : 0;
        int64_t j1 = cj < m - 1 ? cj + 1 : m - 1;
        int64_t base = b * mm;
        for (int64_t ii = i0; ii <= i1; ii++) {
            int64_t row = base + ii * m;
            for (int64_t t = starts[row + j0]; t < starts[row + j1 + 1]; t++) {
                int64_t j = srcsort[t];
                double dx = qx - pos[2 * j];
                double dy = qy - pos[2 * j + 1];
                if (total < cap) {
                    out_b[total] = local;
                    out_s[total] = j;
                }
                total += (dx * dx + dy * dy <= r2);
            }
        }
    }
    if (total > cap) return total;
    for (int64_t k = 0; k < S; k++)
        tally[src[k]] = 0;
    for (int64_t t = 0; t < total; t++)
        tally[out_s[t]] += 1;
    int64_t acc = 0;
    for (int64_t k = 0; k < S; k++) {
        int64_t j = src[k];
        int64_t c = tally[j];
        tally[j] = acc;
        acc += c;
    }
    for (int64_t t = 0; t < total; t++) {
        int64_t j = out_s[t];
        out_q[tally[j]] = out_b[t];
        tally[j] += 1;
    }
    int64_t start = 0;
    for (int64_t k = 0; k < S; k++) {
        int64_t j = src[k];
        int64_t b = j / n;
        int64_t end = tally[j];
        for (int64_t t = start; t < end; t++) {
            out_b[t] = b;
            out_s[t] = j - b * n;
        }
        start = end;
    }
    return total;
}

void repro_count(const double *restrict pos, int64_t n, int64_t m, double inv_cell,
                 double r2, const int64_t *restrict src, int64_t S,
                 const int64_t *restrict qry, int64_t Q,
                 int64_t *restrict cellk, int64_t *restrict starts, int64_t n_starts,
                 int64_t *restrict srcsort, int64_t *restrict out)
{
    grid_build(pos, n, m, inv_cell, src, S, cellk, starts, n_starts, srcsort);
    int64_t mm = m * m;
    for (int64_t k = 0; k < Q; k++) {
        int64_t i = qry[k];
        int64_t b = i / n;
        double qx = pos[2 * i];
        double qy = pos[2 * i + 1];
        int64_t ci = (int64_t)(qx * inv_cell);
        if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
        int64_t cj = (int64_t)(qy * inv_cell);
        if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
        int64_t i0 = ci > 0 ? ci - 1 : 0;
        int64_t i1 = ci < m - 1 ? ci + 1 : m - 1;
        int64_t j0 = cj > 0 ? cj - 1 : 0;
        int64_t j1 = cj < m - 1 ? cj + 1 : m - 1;
        int64_t base = b * mm;
        int64_t hits = 0;
        for (int64_t ii = i0; ii <= i1; ii++) {
            int64_t row = base + ii * m;
            for (int64_t t = starts[row + j0]; t < starts[row + j1 + 1]; t++) {
                int64_t j = srcsort[t];
                double dx = qx - pos[2 * j];
                double dy = qy - pos[2 * j + 1];
                hits += (dx * dx + dy * dy <= r2);
            }
        }
        out[i] = hits;
    }
}

int64_t repro_advance_legs(double *restrict pos, const double *restrict target, double *restrict budget,
                           const int64_t *restrict idx, int64_t K, double eps,
                           const double *restrict speed_arr, double speed_scalar,
                           int speed_mode, int metric, int64_t *restrict done)
{
    int64_t cnt = 0;
    for (int64_t k = 0; k < K; k++) {
        int64_t i = idx[k];
        double d0 = target[2 * i] - pos[2 * i];
        double d1 = target[2 * i + 1] - pos[2 * i + 1];
        double dist = (metric == 0) ? (fabs(d0) + fabs(d1))
                                    : sqrt(d0 * d0 + d1 * d1);
        double b = budget[i];
        double move, s = 1.0;
        if (speed_mode == 0) {
            move = (b < dist) ? b : dist;
        } else {
            s = (speed_mode == 1) ? speed_scalar : speed_arr[i];
            double can = b * s;
            move = (can < dist) ? can : dist;
        }
        double frac = (dist > eps) ? (move / dist) : 1.0;
        pos[2 * i] += d0 * frac;
        pos[2 * i + 1] += d1 * frac;
        budget[i] = (speed_mode == 0) ? (b - move) : (b - move / s);
        if (move >= dist - eps) { done[cnt] = i; cnt++; }
    }
    for (int64_t k = 0; k < cnt; k++) {
        int64_t i = done[k];
        pos[2 * i] = target[2 * i];
        pos[2 * i + 1] = target[2 * i + 1];
    }
    return cnt;
}

int64_t repro_advance_legs_dense(double *restrict pos, const double *restrict target,
                                 double *restrict budget, const uint8_t *restrict moving,
                                 int64_t total, int all_moving, double eps,
                                 const double *restrict speed_arr, double speed_scalar,
                                 int speed_mode, int64_t *restrict done)
{
    int64_t cnt = 0;
    for (int64_t i = 0; i < total; i++) {
        if (!(all_moving || moving[i])) continue;
        double d0 = target[2 * i] - pos[2 * i];
        double d1 = target[2 * i + 1] - pos[2 * i + 1];
        double dist = fabs(d0) + fabs(d1);
        double b = budget[i];
        double move, s = 1.0;
        if (speed_mode == 0) {
            move = (b < dist) ? b : dist;
        } else {
            s = (speed_mode == 1) ? speed_scalar : speed_arr[i];
            double can = b * s;
            move = (can < dist) ? can : dist;
        }
        double frac = (dist > eps) ? (move / dist) : 1.0;
        double spent = (speed_mode == 0) ? move : (move / s);
        pos[2 * i] += d0 * frac;
        pos[2 * i + 1] += d1 * frac;
        budget[i] = b - spent;
        if (move >= dist - eps) { done[cnt] = i; cnt++; }
    }
    for (int64_t k = 0; k < cnt; k++) {
        int64_t i = done[k];
        pos[2 * i] = target[2 * i];
        pos[2 * i + 1] = target[2 * i + 1];
    }
    return cnt;
}

/* The documented layout of numpy's bitgen_t (numpy/random/bitgen.h), so
   the build needs no numpy headers. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static inline void trip_leg(double *restrict pos, double *restrict target,
                            const double *restrict dest, uint8_t *restrict second,
                            int64_t *restrict turns, double eps, int64_t i, double b,
                            int64_t *restrict movers, double *restrict rests,
                            int64_t *restrict redraw, int64_t *k, int64_t *r, int64_t *arrived)
{
    double d0 = target[2 * i] - pos[2 * i];
    double d1 = target[2 * i + 1] - pos[2 * i + 1];
    double dist = fabs(d0) + fabs(d1);
    double move = (b < dist) ? b : dist;
    double frac = (dist > eps) ? (move / dist) : 1.0;
    pos[2 * i] += d0 * frac;
    pos[2 * i + 1] += d1 * frac;
    b = b - move;
    if (move >= dist - eps) {
        *arrived += 1;
        pos[2 * i] = target[2 * i];
        pos[2 * i + 1] = target[2 * i + 1];
        if (second[i]) {
            redraw[*r] = i;
            *r += 1;
        } else {
            second[i] = 1;
            target[2 * i] = dest[2 * i];
            target[2 * i + 1] = dest[2 * i + 1];
            turns[i] += 1;
        }
    }
    if (b > eps) {
        movers[*k] = i;
        rests[*k] = b;
        *k += 1;
    }
}

static void redraw_trips(const double *restrict pos, double *restrict target,
                         double *restrict dest, uint8_t *restrict second,
                         int64_t *restrict turns, int64_t *restrict arrivals, int64_t n,
                         double side, bitgen_t *const *bitgens,
                         const int64_t *restrict redraw, int64_t r)
{
    int64_t t = 0;
    while (t < r) {
        int64_t b = redraw[t] / n;
        int64_t hi = t + 1;
        while (hi < r && redraw[hi] / n == b) hi++;
        bitgen_t *rng = bitgens[b];
        for (int64_t u = t; u < hi; u++) {
            int64_t i = redraw[u];
            dest[2 * i] = rng->next_double(rng->state) * side;
            dest[2 * i + 1] = rng->next_double(rng->state) * side;
        }
        for (int64_t u = t; u < hi; u++) {
            int64_t i = redraw[u];
            float coin = (float)(rng->next_uint32(rng->state) >> 8) * (1.0f / 16777216.0f);
            if (coin >= 0.5f) {
                target[2 * i] = dest[2 * i];
                target[2 * i + 1] = pos[2 * i + 1];
            } else {
                target[2 * i] = pos[2 * i];
                target[2 * i + 1] = dest[2 * i + 1];
            }
            second[i] = 0;
            turns[i] += 1;
            arrivals[i] += 1;
        }
        t = hi;
    }
}

int64_t repro_advance_trips(double *restrict pos, double *restrict target, double *restrict dest,
                            uint8_t *restrict second, int64_t *restrict turns,
                            int64_t *restrict arrivals, const uint8_t *restrict active,
                            int64_t batch, int64_t n, double distance, double eps, double side,
                            bitgen_t *const *bitgens, int64_t max_passes,
                            int64_t *restrict movers, double *restrict rests,
                            int64_t *restrict redraw)
{
    int64_t count = 0;
    if (distance > eps)
        for (int64_t b = 0; b < batch; b++)
            if (active[b]) count += n;
    for (int64_t p = 0; p < max_passes; p++) {
        if (count == 0) return p;
        int64_t k = 0, r = 0, arrived = 0;
        if (p == 0) {
            for (int64_t b = 0; b < batch; b++) {
                if (!active[b]) continue;
                for (int64_t i = b * n; i < (b + 1) * n; i++)
                    trip_leg(pos, target, dest, second, turns, eps,
                             i, distance, movers, rests, redraw, &k, &r, &arrived);
            }
        } else {
            for (int64_t t = 0; t < count; t++)
                trip_leg(pos, target, dest, second, turns, eps,
                         movers[t], rests[t], movers, rests, redraw, &k, &r, &arrived);
        }
        if (arrived == 0) return p + 1;
        redraw_trips(pos, target, dest, second, turns, arrivals, n, side, bitgens, redraw, r);
        count = k;
    }
    return -1;
}

void repro_splice(const int64_t *restrict order, const int64_t *restrict sorted_ids,
                  const uint8_t *restrict removed, int64_t N,
                  const int64_t *restrict new_ids, const int64_t *restrict new_pts, int64_t nn,
                  int64_t *restrict out_order, int64_t *restrict out_ids)
{
    int64_t k = 0, j = 0;
    for (int64_t t = 0; t < N; t++) {
        if (removed[t]) continue;
        int64_t idv = sorted_ids[t];
        while (j < nn && new_ids[j] <= idv) {
            out_ids[k] = new_ids[j];
            out_order[k] = new_pts[j];
            k++; j++;
        }
        out_ids[k] = idv;
        out_order[k] = order[t];
        k++;
    }
    while (j < nn) {
        out_ids[k] = new_ids[j];
        out_order[k] = new_pts[j];
        k++; j++;
    }
}

void repro_union(int64_t *restrict parent, int64_t N, const int64_t *restrict u,
                 const int64_t *restrict v, int64_t E)
{
    for (int64_t k = 0; k < E; k++) {
        int64_t x = u[k];
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        int64_t y = v[k];
        while (parent[y] != y) {
            parent[y] = parent[parent[y]];
            y = parent[y];
        }
        if (x == y) continue;
        if (x < y) parent[y] = x; else parent[x] = y;
    }
    for (int64_t i = 0; i < N; i++)
        parent[i] = parent[parent[i]];
}

void repro_occupancy_delta(int64_t *restrict counts, const int64_t *restrict old_cells,
                           const int64_t *restrict new_cells, int64_t K)
{
    for (int64_t k = 0; k < K; k++) {
        counts[old_cells[k]] -= 1;
        counts[new_cells[k]] += 1;
    }
}

void repro_zone_counts(const double *restrict pos, int64_t total, int64_t n, double ell,
                       int64_t m, const uint8_t *restrict cz_mask,
                       const uint8_t *restrict informed, int64_t *restrict cz_total,
                       int64_t *restrict cz_informed)
{
    for (int64_t t = 0; t < total; t++) {
        int64_t b = t / n;
        int64_t ix = (int64_t)(pos[2 * t] / ell);
        if (ix < 0) ix = 0; else if (ix >= m) ix = m - 1;
        int64_t iy = (int64_t)(pos[2 * t + 1] / ell);
        if (iy < 0) iy = 0; else if (iy >= m) iy = m - 1;
        if (cz_mask[ix * m + iy]) {
            cz_total[b] += 1;
            if (informed[t]) cz_informed[b] += 1;
        }
    }
}
"""

_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_BUILD_ERROR: str | None = None
_BUILD_COUNT = 0


def build_error() -> str | None:
    """Why the last build attempt failed (``None`` if it succeeded / never ran)."""
    return _BUILD_ERROR


def build_count() -> int:
    """How many times this process actually invoked the compiler."""
    return _BUILD_COUNT


def _cache_dir(digest: str) -> str:
    root = os.environ.get("REPRO_CEXT_CACHE")
    if not root:
        root = os.path.join(tempfile.gettempdir(), "repro-cext")
    return os.path.join(root, digest)


def _build_library() -> str:
    """Compile (or reuse) the shared object; returns its path."""
    global _BUILD_COUNT
    digest = hashlib.sha256(" ".join([C_SOURCE, *_CFLAGS]).encode()).hexdigest()[:16]
    directory = _cache_dir(digest)
    lib_path = os.path.join(directory, "libreprokernels.so")
    if os.path.exists(lib_path):
        return lib_path
    _BUILD_COUNT += 1
    os.makedirs(directory, exist_ok=True)
    src_path = os.path.join(directory, "kernels.c")
    with open(src_path, "w") as fh:
        fh.write(C_SOURCE)
    tmp_path = lib_path + f".tmp{os.getpid()}"
    cmd = ["cc", *_CFLAGS, "-o", tmp_path, src_path, "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cc failed: {proc.stderr.strip()[:500]}")
    os.replace(tmp_path, lib_path)  # atomic: concurrent builders race safely
    return lib_path


# Array arguments cross as raw addresses (a ``c_void_p`` argtype fed the
# plain int ``arr.ctypes.data``) and scalars as Python numbers, which the
# argtypes convert: building a typed ``data_as(POINTER(...))`` pointer or
# a ``c_int64`` per argument was a third of a small kernel call's cost.
# The glue has already checked every dtype and contiguity.
_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_int = ctypes.c_int


def _addr(arr) -> int:
    return arr.ctypes.data


def _declare(lib):
    lib.repro_any_within.restype = None
    lib.repro_any_within.argtypes = [
        _ptr, _i64, _i64, _f64, _f64, _ptr, _i64, _ptr, _i64,
        _ptr, _ptr, _i64, _ptr, _ptr,
    ]
    lib.repro_contacts.restype = _i64
    lib.repro_contacts.argtypes = [
        _ptr, _i64, _i64, _f64, _f64, _ptr, _i64, _ptr, _i64,
        _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _i64,
    ]
    lib.repro_count.restype = None
    lib.repro_count.argtypes = [
        _ptr, _i64, _i64, _f64, _f64, _ptr, _i64, _ptr, _i64,
        _ptr, _ptr, _i64, _ptr, _ptr,
    ]
    lib.repro_advance_legs.restype = _i64
    lib.repro_advance_legs.argtypes = [
        _ptr, _ptr, _ptr, _ptr, _i64, _f64, _ptr, _f64, _int, _int, _ptr,
    ]
    lib.repro_advance_legs_dense.restype = _i64
    lib.repro_advance_legs_dense.argtypes = [
        _ptr, _ptr, _ptr, _ptr, _i64, _int, _f64, _ptr, _f64, _int, _ptr,
    ]
    lib.repro_advance_trips.restype = _i64
    lib.repro_advance_trips.argtypes = [
        _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64, _i64, _f64, _f64, _f64,
        _ptr, _i64, _ptr, _ptr, _ptr,
    ]
    lib.repro_splice.restype = None
    lib.repro_splice.argtypes = [
        _ptr, _ptr, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _ptr,
    ]
    lib.repro_union.restype = None
    lib.repro_union.argtypes = [_ptr, _i64, _ptr, _ptr, _i64]
    lib.repro_occupancy_delta.restype = None
    lib.repro_occupancy_delta.argtypes = [_ptr, _ptr, _ptr, _i64]
    lib.repro_zone_counts.restype = None
    lib.repro_zone_counts.argtypes = [
        _ptr, _i64, _i64, _f64, _i64, _ptr, _ptr, _ptr, _ptr,
    ]


def bitgen_handles(rngs):
    """Each generator's ``bitgen_t *``, as a ``uintp`` array, through numpy's
    public ctypes interface; ``None`` when a bit generator lacks it."""
    try:
        return np.array(
            [rng.bit_generator.ctypes.bit_generator.value for rng in rngs], dtype=np.uintp
        )
    except (AttributeError, TypeError):
        return None


def load_cores():
    """Build + load the library; returns a ``_cores``-shaped namespace.

    Raises on any failure (no compiler, build error, missing symbol); the
    registry treats that as "provider unavailable" and caches the reason.
    """
    global _BUILD_ERROR
    try:
        lib = ctypes.CDLL(_build_library())
        _declare(lib)
    except Exception as exc:  # noqa: BLE001 - any failure disables the provider
        _BUILD_ERROR = str(exc)
        raise

    def any_within_core(pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, out):
        lib.repro_any_within(
            _addr(pos), n, m, inv_cell, r2,
            _addr(src), src.shape[0], _addr(qry), qry.shape[0],
            _addr(cellk), _addr(starts), starts.shape[0], _addr(srcsort), _addr(out),
        )

    def contacts_core(pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, tally, out_b, out_s, out_q, cap):
        return lib.repro_contacts(
            _addr(pos), n, m, inv_cell, r2,
            _addr(src), src.shape[0], _addr(qry), qry.shape[0],
            _addr(cellk), _addr(starts), starts.shape[0], _addr(srcsort), _addr(tally),
            _addr(out_b), _addr(out_s), _addr(out_q), cap,
        )

    def count_core(pos, n, m, inv_cell, r2, src, qry, cellk, starts, srcsort, out):
        lib.repro_count(
            _addr(pos), n, m, inv_cell, r2,
            _addr(src), src.shape[0], _addr(qry), qry.shape[0],
            _addr(cellk), _addr(starts), starts.shape[0], _addr(srcsort), _addr(out),
        )

    def advance_legs_core(pos, target, budget, idx, eps, speed_arr, speed_scalar, speed_mode, metric, done):
        return lib.repro_advance_legs(
            _addr(pos), _addr(target), _addr(budget), _addr(idx), idx.shape[0],
            eps, _addr(speed_arr), speed_scalar, speed_mode, metric, _addr(done),
        )

    def advance_legs_dense_core(pos, target, budget, moving, all_moving, eps, speed_arr, speed_scalar, speed_mode, done):
        return lib.repro_advance_legs_dense(
            _addr(pos), _addr(target), _addr(budget), _addr(moving),
            budget.shape[0], 1 if all_moving else 0, eps,
            _addr(speed_arr), speed_scalar, speed_mode, _addr(done),
        )

    def advance_trips_core(pos, target, dest, on_second_leg, turns, arrivals, active, n, distance, eps, side, bitgens, max_passes, movers, rests, redraw):
        return lib.repro_advance_trips(
            _addr(pos), _addr(target), _addr(dest), _addr(on_second_leg),
            _addr(turns), _addr(arrivals), _addr(active), active.shape[0], n,
            distance, eps, side, _addr(bitgens), max_passes,
            _addr(movers), _addr(rests), _addr(redraw),
        )

    def splice_core(order, sorted_ids, removed, new_ids, new_pts, out_order, out_ids):
        lib.repro_splice(
            _addr(order), _addr(sorted_ids), _addr(removed), order.shape[0],
            _addr(new_ids), _addr(new_pts), new_ids.shape[0],
            _addr(out_order), _addr(out_ids),
        )

    def union_core(parent, u, v):
        lib.repro_union(_addr(parent), parent.shape[0], _addr(u), _addr(v), u.shape[0])

    def occupancy_delta_core(counts, old_cells, new_cells):
        lib.repro_occupancy_delta(
            _addr(counts), _addr(old_cells), _addr(new_cells), old_cells.shape[0]
        )

    def zone_counts_core(pos, n, ell, m, cz_mask, informed, cz_total, cz_informed):
        lib.repro_zone_counts(
            _addr(pos), pos.shape[0], n, ell, m,
            _addr(cz_mask), _addr(informed), _addr(cz_total), _addr(cz_informed),
        )

    _BUILD_ERROR = None
    return SimpleNamespace(
        any_within_core=any_within_core,
        contacts_core=contacts_core,
        count_core=count_core,
        advance_legs_core=advance_legs_core,
        advance_legs_dense_core=advance_legs_dense_core,
        bitgen_handles=bitgen_handles,
        advance_trips_core=advance_trips_core,
        splice_core=splice_core,
        union_core=union_core,
        occupancy_delta_core=occupancy_delta_core,
        zone_counts_core=zone_counts_core,
    )
