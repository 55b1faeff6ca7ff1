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

The infection test (``repro_any_within``) and the trip step
(``repro_advance_trips``) split a call's replicas over POSIX threads
(built with ``-pthread``): ``split_run`` creates ``threads - 1`` threads
and joins them before the call returns, so no thread outlives a call and
a forked worker never inherits one.  Each thread takes the next unit of
work from an atomic counter and works in its own block of the work
arrays; the units (a replica, or in the trip step a group of replicas
that share one bit generator) are independent, so the results do not
depend on ``threads``, which the glue derives per call.

The adapters exported through :func:`load_cores` take the same array
arguments as the Python cores, which lets :mod:`repro.kernels._glue`
drive either provider unchanged.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from types import SimpleNamespace

import numpy as np

__all__ = ["load_cores", "build_error"]

C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <pthread.h>

/* Fork-join over independent units of work.  `threads` workers (the
   calling thread and threads - 1 POSIX threads, created here and joined
   before split_run returns, so none outlives the call) take the next
   unit from a shared counter until none is left; run(job, unit, worker)
   does one unit with worker `worker`'s buffers.  A thread that cannot be
   created leaves its units to the others.  Returns -1 if any unit
   returned a negative count, else the largest count. */
typedef int64_t (*unit_fn)(void *job, int64_t unit, int64_t worker);

typedef struct {
    unit_fn run;
    void *job;
    int64_t units;
    int64_t next;
} split_t;

typedef struct {
    split_t *split;
    int64_t worker;
    int64_t most;
} worker_t;

static void *split_worker(void *arg)
{
    worker_t *w = (worker_t *)arg;
    split_t *s = w->split;
    for (;;) {
        int64_t u = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED);
        if (u >= s->units) return NULL;
        int64_t got = s->run(s->job, u, w->worker);
        if (w->most >= 0 && (got < 0 || got > w->most)) w->most = got;
    }
}

static int64_t split_run(unit_fn run, void *job, int64_t units, int64_t threads)
{
    split_t s = {run, job, units, 0};
    if (threads > units) threads = units;
    if (threads < 1) threads = 1;
    pthread_t tid[threads];
    worker_t w[threads];
    int64_t started = 1;
    for (int64_t t = 0; t < threads; t++) {
        w[t].split = &s;
        w[t].worker = t;
        w[t].most = 0;
    }
    for (int64_t t = 1; t < threads; t++) {
        if (pthread_create(&tid[t], NULL, split_worker, &w[t]) != 0) break;
        started++;
    }
    split_worker(&w[0]);
    int64_t most = 0;
    for (int64_t t = 0; t < started; t++) {
        if (t > 0) pthread_join(tid[t], NULL);
        if (most >= 0 && (w[t].most < 0 || w[t].most > most)) most = w[t].most;
    }
    return most;
}

static int64_t gather(const uint8_t *restrict mask, int64_t n, int64_t *restrict idx)
{
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        idx[count] = i;
        count += (mask[i] != 0);
    }
    return count;
}

static void grid_build(const double *restrict pb, int64_t m, double inv_cell,
                       const int64_t *restrict lsrc, int64_t S,
                       int64_t *restrict cellk, int64_t *restrict starts,
                       int64_t *restrict srcsort)
{
    int64_t cells = m * m;
    for (int64_t c = 0; c < cells + 2; c++)
        starts[c] = 0;
    for (int64_t k = 0; k < S; k++) {
        int64_t i = lsrc[k];
        int64_t ci = (int64_t)(pb[2 * i] * inv_cell);
        if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
        int64_t cj = (int64_t)(pb[2 * i + 1] * inv_cell);
        if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
        int64_t c = ci * m + cj;
        cellk[k] = c;
        starts[c + 2] += 1;
    }
    for (int64_t c = 1; c < cells + 2; c++)
        starts[c] += starts[c - 1];
    for (int64_t k = 0; k < S; k++) {
        int64_t c = cellk[k];
        srcsort[starts[c + 1]] = lsrc[k];
        starts[c + 1] += 1;
    }
}

/* One replica of repro_any_within, with worker w's rows of the work
   buffers. */
typedef struct {
    const double *pos;
    int64_t n, m;
    double inv_cell, r2;
    const uint8_t *smask, *qmask;
    int64_t *lsrc, *lqry, *cellk, *starts, *srcsort;
    uint8_t *out;
} any_job_t;

static int64_t any_within_replica(void *arg, int64_t b, int64_t w)
{
    const any_job_t *j = (const any_job_t *)arg;
    const int64_t n = j->n, m = j->m;
    const double inv_cell = j->inv_cell, r2 = j->r2;
    int64_t *restrict lsrc = j->lsrc + w * n;
    int64_t *restrict lqry = j->lqry + w * n;
    int64_t *restrict starts = j->starts + w * (m * m + 2);
    int64_t *restrict srcsort = j->srcsort + w * n;
    int64_t S = gather(j->smask + b * n, n, lsrc);
    if (S == 0) return 0;
    int64_t Q = gather(j->qmask + b * n, n, lqry);
    if (Q == 0) return 0;
    const double *restrict pb = j->pos + 2 * b * n;
    grid_build(pb, m, inv_cell, lsrc, S, j->cellk + w * n, starts, srcsort);
    uint8_t *restrict ob = j->out + b * n;
    for (int64_t k = 0; k < Q; k++) {
        int64_t i = lqry[k];
        double qx = pb[2 * i];
        double qy = pb[2 * i + 1];
        int64_t ci = (int64_t)(qx * inv_cell);
        if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
        int64_t cj = (int64_t)(qy * inv_cell);
        if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
        int64_t i0 = ci > 0 ? ci - 1 : 0;
        int64_t i1 = ci < m - 1 ? ci + 1 : m - 1;
        int64_t j0 = cj > 0 ? cj - 1 : 0;
        int64_t j1 = cj < m - 1 ? cj + 1 : m - 1;
        int hit = 0;
        for (int64_t ii = i0; ii <= i1 && !hit; ii++) {
            int64_t row = ii * m;
            for (int64_t t = starts[row + j0]; t < starts[row + j1 + 1]; t++) {
                int64_t s = srcsort[t];
                double dx = qx - pb[2 * s];
                double dy = qy - pb[2 * s + 1];
                if (dx * dx + dy * dy <= r2) { hit = 1; break; }
            }
        }
        if (hit) ob[i] = 1;
    }
    return 0;
}

void repro_any_within(const double *pos, int64_t batch, int64_t n, int64_t m,
                      double inv_cell, double r2, const uint8_t *smask,
                      const uint8_t *qmask, int64_t *lsrc, int64_t *lqry, int64_t *cellk,
                      int64_t *starts, int64_t *srcsort, uint8_t *out, int64_t threads)
{
    any_job_t job = {pos, n, m, inv_cell, r2, smask, qmask,
                     lsrc, lqry, cellk, starts, srcsort, out};
    split_run(any_within_replica, &job, batch, threads);
}

int64_t repro_contacts(const double *restrict pos, int64_t batch, int64_t n, int64_t m,
                       double inv_cell, double r2,
                       const uint8_t *restrict smask, const uint8_t *restrict qmask,
                       int64_t *restrict lsrc, int64_t *restrict lqry,
                       int64_t *restrict cellk, int64_t *restrict starts,
                       int64_t *restrict srcsort, int64_t *restrict tally,
                       int64_t *restrict out_b, int64_t *restrict out_s,
                       int64_t *restrict out_q, int64_t cap)
{
    int64_t total = 0;
    for (int64_t b = 0; b < batch; b++) {
        int64_t S = gather(smask + b * n, n, lsrc);
        if (S == 0) continue;
        int64_t Q = gather(qmask + b * n, n, lqry);
        if (Q == 0) continue;
        const double *restrict pb = pos + 2 * b * n;
        grid_build(pb, m, inv_cell, lsrc, S, cellk, starts, srcsort);
        int64_t first = total;
        for (int64_t k = 0; k < Q; k++) {
            int64_t i = lqry[k];
            double qx = pb[2 * i];
            double qy = pb[2 * i + 1];
            int64_t ci = (int64_t)(qx * inv_cell);
            if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
            int64_t cj = (int64_t)(qy * inv_cell);
            if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
            int64_t i0 = ci > 0 ? ci - 1 : 0;
            int64_t i1 = ci < m - 1 ? ci + 1 : m - 1;
            int64_t j0 = cj > 0 ? cj - 1 : 0;
            int64_t j1 = cj < m - 1 ? cj + 1 : m - 1;
            for (int64_t ii = i0; ii <= i1; ii++) {
                int64_t row = ii * m;
                for (int64_t t = starts[row + j0]; t < starts[row + j1 + 1]; t++) {
                    int64_t j = srcsort[t];
                    double dx = qx - pb[2 * j];
                    double dy = qy - pb[2 * j + 1];
                    if (total < cap) {
                        out_b[total] = i;
                        out_s[total] = j;
                    }
                    total += (dx * dx + dy * dy <= r2);
                }
            }
        }
        if (total > cap) continue;
        for (int64_t k = 0; k < S; k++)
            tally[lsrc[k]] = 0;
        for (int64_t t = first; t < total; t++)
            tally[out_s[t]] += 1;
        int64_t acc = first;
        for (int64_t k = 0; k < S; k++) {
            int64_t j = lsrc[k];
            int64_t c = tally[j];
            tally[j] = acc;
            acc += c;
        }
        for (int64_t t = first; t < total; t++) {
            int64_t j = out_s[t];
            out_q[tally[j]] = out_b[t];
            tally[j] += 1;
        }
        int64_t start = first;
        for (int64_t k = 0; k < S; k++) {
            int64_t j = lsrc[k];
            int64_t end = tally[j];
            for (int64_t t = start; t < end; t++) {
                out_b[t] = b;
                out_s[t] = j;
            }
            start = end;
        }
    }
    return total;
}

void repro_count(const double *restrict pos, int64_t batch, int64_t n, int64_t m,
                 double inv_cell, double r2,
                 const uint8_t *restrict smask, const uint8_t *restrict qmask,
                 int64_t *restrict lsrc, int64_t *restrict lqry,
                 int64_t *restrict cellk, int64_t *restrict starts,
                 int64_t *restrict srcsort, int64_t *restrict out)
{
    for (int64_t b = 0; b < batch; b++) {
        int64_t S = gather(smask + b * n, n, lsrc);
        if (S == 0) continue;
        int64_t Q = gather(qmask + b * n, n, lqry);
        if (Q == 0) continue;
        const double *restrict pb = pos + 2 * b * n;
        grid_build(pb, m, inv_cell, lsrc, S, cellk, starts, srcsort);
        int64_t *restrict ob = out + b * n;
        for (int64_t k = 0; k < Q; k++) {
            int64_t i = lqry[k];
            double qx = pb[2 * i];
            double qy = pb[2 * i + 1];
            int64_t ci = (int64_t)(qx * inv_cell);
            if (ci < 0) ci = 0; else if (ci >= m) ci = m - 1;
            int64_t cj = (int64_t)(qy * inv_cell);
            if (cj < 0) cj = 0; else if (cj >= m) cj = m - 1;
            int64_t i0 = ci > 0 ? ci - 1 : 0;
            int64_t i1 = ci < m - 1 ? ci + 1 : m - 1;
            int64_t j0 = cj > 0 ? cj - 1 : 0;
            int64_t j1 = cj < m - 1 ? cj + 1 : m - 1;
            int64_t hits = 0;
            for (int64_t ii = i0; ii <= i1; ii++) {
                int64_t row = ii * m;
                for (int64_t t = starts[row + j0]; t < starts[row + j1 + 1]; t++) {
                    int64_t j = srcsort[t];
                    double dx = qx - pb[2 * j];
                    double dy = qy - pb[2 * j + 1];
                    hits += (dx * dx + dy * dy <= r2);
                }
            }
            ob[i] = hits;
        }
    }
}

int64_t repro_advance_legs(double *restrict pos, const double *restrict target, double *restrict budget,
                           const int64_t *restrict idx, int64_t K, double eps, int64_t *restrict done)
{
    int64_t cnt = 0;
    for (int64_t k = 0; k < K; k++) {
        int64_t i = idx[k];
        double d0 = target[2 * i] - pos[2 * i];
        double d1 = target[2 * i + 1] - pos[2 * i + 1];
        double dist = fabs(d0) + fabs(d1);
        double b = budget[i];
        double move = (b < dist) ? b : dist;
        double frac = (dist > eps) ? (move / dist) : 1.0;
        pos[2 * i] += d0 * frac;
        pos[2 * i + 1] += d1 * frac;
        budget[i] = b - move;
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
                                 int64_t *restrict done)
{
    int64_t cnt = 0;
    for (int64_t i = 0; i < total; i++) {
        if (!(all_moving || moving[i])) continue;
        double d0 = target[2 * i] - pos[2 * i];
        double d1 = target[2 * i + 1] - pos[2 * i + 1];
        double dist = fabs(d0) + fabs(d1);
        double b = budget[i];
        double move = (b < dist) ? b : dist;
        double frac = (dist > eps) ? (move / dist) : 1.0;
        pos[2 * i] += d0 * frac;
        pos[2 * i + 1] += d1 * frac;
        budget[i] = b - move;
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

/* Modes of repro_advance_trips, one per trip model (the glue's
   MRWP_TRIPS ... RWP_TRIPS).  Each mode's step is its own inlined copy
   of trips_unit, so the mode tests fold away inside the loops. */
enum { TRIPS_MRWP = 0, TRIPS_PAUSE = 1, TRIPS_SPEED = 2, TRIPS_RWP = 3 };

#define TRIPS_INLINE static inline __attribute__((always_inline))

TRIPS_INLINE void burn(const int mode, double *restrict pause_left, double speed, double eps,
                       double eps_t, int64_t i, double b, int64_t *restrict movers,
                       double *restrict rests, int64_t *restrict redraw, int64_t *k, int64_t *e)
{
    double left = pause_left[i];
    if (left > 0) {
        double spend = (left < b) ? left : b;
        left = left - spend;
        b = b - spend;
        pause_left[i] = left;
        if (left <= 0 && mode == TRIPS_PAUSE) { redraw[*e] = i; *e += 1; }
    }
    if (left <= 0) {
        int moves = (mode == TRIPS_RWP) ? (b * speed > eps) : (b > eps_t);
        if (moves) { movers[*k] = i; rests[*k] = b; *k += 1; }
    }
}

TRIPS_INLINE void trip_leg(const int mode, double *restrict pos, double *restrict target,
                           double *restrict dest, uint8_t *restrict second,
                           int64_t *restrict turns, double *restrict pause_left,
                           const double *restrict speeds, double speed, double eps,
                           double eps_t, double pause_time, int64_t i, double b,
                           int64_t *restrict movers, double *restrict rests,
                           int64_t *restrict redraw, int64_t *k, int64_t *r, int64_t *arrived)
{
    double t0 = (mode == TRIPS_RWP) ? dest[2 * i] : target[2 * i];
    double t1 = (mode == TRIPS_RWP) ? dest[2 * i + 1] : target[2 * i + 1];
    double d0 = t0 - pos[2 * i];
    double d1 = t1 - pos[2 * i + 1];
    double dist = (mode == TRIPS_RWP) ? sqrt(d0 * d0 + d1 * d1) : (fabs(d0) + fabs(d1));
    double move, s = 1.0;
    if (mode == TRIPS_MRWP) {
        move = (b < dist) ? b : dist;
    } else {
        s = (mode == TRIPS_SPEED) ? speeds[i] : speed;
        double can = b * s;
        move = (can < dist) ? can : dist;
    }
    double frac = (dist > eps) ? (move / dist) : 1.0;
    pos[2 * i] += d0 * frac;
    pos[2 * i + 1] += d1 * frac;
    b = (mode == TRIPS_MRWP) ? (b - move) : (b - move / s);
    if (move >= dist - eps) {
        *arrived += 1;
        pos[2 * i] = t0;
        pos[2 * i + 1] = t1;
        if (mode == TRIPS_RWP) {
            redraw[*r] = i;
            *r += 1;
        } else if (second[i]) {
            if (mode == TRIPS_PAUSE && pause_time > 0) {
                pause_left[i] = pause_time;
            } else {
                redraw[*r] = i;
                *r += 1;
            }
        } else {
            second[i] = 1;
            target[2 * i] = dest[2 * i];
            target[2 * i + 1] = dest[2 * i + 1];
            if (mode == TRIPS_MRWP) turns[i] += 1;
        }
    }
    if (b > eps_t) {
        movers[*k] = i;
        rests[*k] = b;
        *k += 1;
    }
}

/* End of the run of replica b = redraw[t] / n in the ascending redraw[t:r]. */
static inline int64_t replica_run(const int64_t *restrict redraw, int64_t t, int64_t r,
                                  int64_t n, int64_t *b)
{
    *b = redraw[t] / n;
    int64_t hi = t + 1;
    while (hi < r && redraw[hi] / n == *b) hi++;
    return hi;
}

TRIPS_INLINE void redraw_trips(const double *restrict pos, double *restrict target,
                               double *restrict dest, uint8_t *restrict second,
                               int64_t *restrict turns, int64_t *restrict arrivals,
                               const int counted, int64_t n, double side,
                               bitgen_t *const *bitgens, const int64_t *restrict redraw,
                               int64_t r)
{
    int64_t t = 0;
    while (t < r) {
        int64_t b;
        int64_t hi = replica_run(redraw, t, r, n, &b);
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
            if (counted) {
                turns[i] += 1;
                arrivals[i] += 1;
            }
        }
        t = hi;
    }
}

static void redraw_speeds(double *restrict speeds, int64_t n, double v_min, double v_range,
                          bitgen_t *const *bitgens, const int64_t *restrict redraw, int64_t r)
{
    int64_t t = 0;
    while (t < r) {
        int64_t b;
        int64_t hi = replica_run(redraw, t, r, n, &b);
        bitgen_t *rng = bitgens[b];
        for (int64_t u = t; u < hi; u++)
            speeds[redraw[u]] = v_min + v_range * rng->next_double(rng->state);
        t = hi;
    }
}

static void redraw_destinations(double *restrict dest, int64_t *restrict arrivals,
                                double *restrict pause_left, double pause_time, int64_t n,
                                double side, bitgen_t *const *bitgens,
                                const int64_t *restrict redraw, int64_t r)
{
    int64_t t = 0;
    while (t < r) {
        int64_t b;
        int64_t hi = replica_run(redraw, t, r, n, &b);
        bitgen_t *rng = bitgens[b];
        for (int64_t u = t; u < hi; u++) {
            int64_t i = redraw[u];
            dest[2 * i] = rng->next_double(rng->state) * side;
            dest[2 * i + 1] = rng->next_double(rng->state) * side;
            pause_left[i] = pause_time;
            arrivals[i] += 1;
        }
        t = hi;
    }
}

/* One unit's step: the carry-over loop over the replicas reps[0..R-1]
   (ascending), with movers, rests and redraw pointing at the unit's own
   region of the work buffers. */
TRIPS_INLINE int64_t trips_unit(const int mode, double *restrict pos, double *restrict target,
                                double *restrict dest, uint8_t *restrict second,
                                int64_t *restrict turns, int64_t *restrict arrivals,
                                double *restrict pause_left, double *restrict speeds,
                                const uint8_t *restrict active, const int64_t *restrict reps,
                                int64_t R, int64_t n, double budget, double speed, double eps,
                                double eps_t, double pause_time, double side, double v_min,
                                double v_range, bitgen_t *const *bitgens, int64_t max_passes,
                                int64_t *restrict movers, double *restrict rests,
                                int64_t *restrict redraw)
{
    const int pauses = (mode == TRIPS_PAUSE || mode == TRIPS_RWP);
    int64_t count = 0;
    if (budget > eps_t)
        for (int64_t u = 0; u < R; u++)
            if (active[reps[u]]) count += n;
    for (int64_t p = 0; p < max_passes; p++) {
        if (count == 0) return p;
        if (pauses) {
            int64_t k = 0, e = 0;
            if (p == 0) {
                for (int64_t u = 0; u < R; u++) {
                    int64_t b = reps[u];
                    if (!active[b]) continue;
                    for (int64_t i = b * n; i < (b + 1) * n; i++)
                        burn(mode, pause_left, speed, eps, eps_t, i, budget,
                             movers, rests, redraw, &k, &e);
                }
            } else {
                for (int64_t t = 0; t < count; t++)
                    burn(mode, pause_left, speed, eps, eps_t, movers[t], rests[t],
                         movers, rests, redraw, &k, &e);
            }
            if (mode == TRIPS_PAUSE)
                redraw_trips(pos, target, dest, second, turns, arrivals, 0, n, side,
                             bitgens, redraw, e);
            count = k;
            if (count == 0) return p + 1;
        }
        int64_t k = 0, r = 0, arrived = 0;
        if (p == 0 && !pauses) {
            for (int64_t u = 0; u < R; u++) {
                int64_t b = reps[u];
                if (!active[b]) continue;
                for (int64_t i = b * n; i < (b + 1) * n; i++)
                    trip_leg(mode, pos, target, dest, second, turns, pause_left, speeds,
                             speed, eps, eps_t, pause_time, i, budget,
                             movers, rests, redraw, &k, &r, &arrived);
            }
        } else {
            for (int64_t t = 0; t < count; t++)
                trip_leg(mode, pos, target, dest, second, turns, pause_left, speeds,
                         speed, eps, eps_t, pause_time, movers[t], rests[t],
                         movers, rests, redraw, &k, &r, &arrived);
        }
        if (arrived == 0) return p + 1;
        if (mode == TRIPS_RWP) {
            redraw_destinations(dest, arrivals, pause_left, pause_time, n, side,
                                bitgens, redraw, r);
        } else {
            redraw_trips(pos, target, dest, second, turns, arrivals, mode == TRIPS_MRWP,
                         n, side, bitgens, redraw, r);
            if (mode == TRIPS_SPEED)
                redraw_speeds(speeds, n, v_min, v_range, bitgens, redraw, r);
        }
        count = k;
    }
    return -1;
}

typedef struct {
    int64_t mode;
    double *pos, *target, *dest;
    uint8_t *second;
    int64_t *turns, *arrivals;
    double *pause_left, *speeds;
    const uint8_t *active;
    int64_t n;
    double budget, speed, eps, eps_t, pause_time, side, v_min, v_range;
    bitgen_t *const *bitgens;
    const int64_t *units, *unit_starts;
    int64_t max_passes;
    int64_t *movers;
    double *rests;
    int64_t *redraw;
} trips_job_t;

/* Unit u of repro_advance_trips: the replicas units[unit_starts[u] ..
   unit_starts[u + 1] - 1], whose work region starts at agent
   unit_starts[u] * n. */
static int64_t trips_unit_run(void *arg, int64_t u, int64_t w)
{
    (void)w;
    const trips_job_t *j = (const trips_job_t *)arg;
    int64_t first = j->unit_starts[u];
    int64_t R = j->unit_starts[u + 1] - first;
    int64_t off = first * j->n;
#define TRIPS_UNIT(MODE) \
    trips_unit(MODE, j->pos, j->target, j->dest, j->second, j->turns, j->arrivals, \
               j->pause_left, j->speeds, j->active, j->units + first, R, j->n, j->budget, \
               j->speed, j->eps, j->eps_t, j->pause_time, j->side, j->v_min, j->v_range, \
               j->bitgens, j->max_passes, j->movers + off, j->rests + off, j->redraw + off)
    switch (j->mode) {
    case TRIPS_PAUSE: return TRIPS_UNIT(TRIPS_PAUSE);
    case TRIPS_SPEED: return TRIPS_UNIT(TRIPS_SPEED);
    case TRIPS_RWP: return TRIPS_UNIT(TRIPS_RWP);
    default: return TRIPS_UNIT(TRIPS_MRWP);
    }
#undef TRIPS_UNIT
}

int64_t repro_advance_trips(int64_t mode, double *pos, double *target, double *dest,
                            uint8_t *second, int64_t *turns, int64_t *arrivals,
                            double *pause_left, double *speeds, const uint8_t *active, int64_t n,
                            double budget, double speed, double eps, double eps_t,
                            double pause_time, double side, double v_min, double v_range,
                            bitgen_t *const *bitgens, const int64_t *units,
                            const int64_t *unit_starts, int64_t n_units, int64_t threads,
                            int64_t max_passes, int64_t *movers, double *rests, int64_t *redraw)
{
    trips_job_t job = {mode, pos, target, dest, second, turns, arrivals, pause_left, speeds,
                       active, n, budget, speed, eps, eps_t, pause_time, side, v_min, v_range,
                       bitgens, units, unit_starts, max_passes, movers, rests, redraw};
    return split_run(trips_unit_run, &job, n_units, threads);
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

void repro_zone_counts(const double *restrict pos, int64_t B, int64_t n, double ell,
                       int64_t m, const uint8_t *restrict cz_mask,
                       const uint8_t *restrict informed, const uint8_t *restrict open_zones,
                       uint8_t *restrict left)
{
    for (int64_t b = 0; b < B; b++) {
        uint8_t want = open_zones[b] & 3;
        uint8_t seen = 0;
        if (want) {
            for (int64_t t = b * n; t < (b + 1) * n; t++) {
                if (informed[t]) continue;
                int64_t ix = (int64_t)(pos[2 * t] / ell);
                if (ix < 0) ix = 0; else if (ix >= m) ix = m - 1;
                int64_t iy = (int64_t)(pos[2 * t + 1] / ell);
                if (iy < 0) iy = 0; else if (iy >= m) iy = m - 1;
                seen |= cz_mask[ix * m + iy] ? 1 : 2;
                if ((seen & want) == want) break;
            }
        }
        left[b] = seen & want;
    }
}
"""

_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")

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


def _ctypes_addr(arr) -> int:
    return arr.ctypes.data


# ``arr.ctypes.data`` builds a helper object per call (1.4-2.4 µs).  On
# CPython an ndarray's data pointer is the first field after the object
# header in numpy's public ``PyArrayObject_fields`` struct, which one
# ``from_address`` read returns in 0.2-0.35 µs.  The read is checked once
# against ``arr.ctypes.data`` at import; on any mismatch ``_addr`` stays
# ``_ctypes_addr``.
_DATA_OFFSET = object.__basicsize__
_read_pointer = ctypes.c_void_p.from_address


def _struct_addr(arr) -> int:
    return _read_pointer(id(arr) + _DATA_OFFSET).value


def _probe_arrays():
    """One array of each kind the kernels are handed: C-contiguous, a
    strided view, 0-size, read-only and bool."""
    base = np.arange(12, dtype=np.float64)
    frozen = np.arange(4, dtype=np.int64)
    frozen.flags.writeable = False
    return (base, base[1::3], np.empty(0, dtype=np.int64), frozen, np.ones(5, dtype=np.bool_))


def _reads_data_pointer(offset) -> bool:
    """Whether the pointer at ``offset`` into each probe array is its
    ``ctypes.data``."""
    if platform.python_implementation() != "CPython":
        return False
    return all(
        _read_pointer(id(arr) + offset).value == arr.ctypes.data for arr in _probe_arrays()
    )


_addr = _struct_addr if _reads_data_pointer(_DATA_OFFSET) else _ctypes_addr


def _declare(lib):
    pair = [
        _ptr, _i64, _i64, _i64, _f64, _f64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr,
    ]
    lib.repro_any_within.restype = None
    lib.repro_any_within.argtypes = [*pair, _ptr, _i64]
    lib.repro_contacts.restype = _i64
    lib.repro_contacts.argtypes = [*pair, _ptr, _ptr, _ptr, _ptr, _i64]
    lib.repro_count.restype = None
    lib.repro_count.argtypes = [*pair, _ptr]
    lib.repro_advance_legs.restype = _i64
    lib.repro_advance_legs.argtypes = [_ptr, _ptr, _ptr, _ptr, _i64, _f64, _ptr]
    lib.repro_advance_legs_dense.restype = _i64
    lib.repro_advance_legs_dense.argtypes = [_ptr, _ptr, _ptr, _ptr, _i64, _int, _f64, _ptr]
    lib.repro_advance_trips.restype = _i64
    lib.repro_advance_trips.argtypes = [
        _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _i64,
        _f64, _f64, _f64, _f64, _f64, _f64, _f64, _f64, _ptr, _ptr, _ptr, _i64, _i64, _i64,
        _ptr, _ptr, _ptr,
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

    def any_within_core(pos, m, inv_cell, r2, smask, qmask, lsrc, lqry, cellk, starts, srcsort, out, threads):
        lib.repro_any_within(
            _addr(pos), smask.shape[0], smask.shape[1], m, inv_cell, r2,
            _addr(smask), _addr(qmask), _addr(lsrc), _addr(lqry),
            _addr(cellk), _addr(starts), _addr(srcsort), _addr(out), threads,
        )

    def contacts_core(pos, m, inv_cell, r2, smask, qmask, lsrc, lqry, cellk, starts, srcsort, tally, out_b, out_s, out_q, cap):
        return lib.repro_contacts(
            _addr(pos), smask.shape[0], smask.shape[1], m, inv_cell, r2,
            _addr(smask), _addr(qmask), _addr(lsrc), _addr(lqry),
            _addr(cellk), _addr(starts), _addr(srcsort), _addr(tally),
            _addr(out_b), _addr(out_s), _addr(out_q), cap,
        )

    def count_core(pos, m, inv_cell, r2, smask, qmask, lsrc, lqry, cellk, starts, srcsort, out):
        lib.repro_count(
            _addr(pos), smask.shape[0], smask.shape[1], m, inv_cell, r2,
            _addr(smask), _addr(qmask), _addr(lsrc), _addr(lqry),
            _addr(cellk), _addr(starts), _addr(srcsort), _addr(out),
        )

    def advance_legs_core(pos, target, budget, idx, eps, done):
        return lib.repro_advance_legs(
            _addr(pos), _addr(target), _addr(budget), _addr(idx), idx.shape[0], eps, _addr(done),
        )

    def advance_legs_dense_core(pos, target, budget, moving, all_moving, eps, done):
        return lib.repro_advance_legs_dense(
            _addr(pos), _addr(target), _addr(budget), _addr(moving),
            budget.shape[0], 1 if all_moving else 0, eps, _addr(done),
        )

    def advance_trips_core(mode, pos, target, dest, on_second_leg, turns, arrivals, pause_left, speeds, active, n, budget, speed, eps, eps_t, pause_time, side, v_min, v_range, bitgens, units, unit_starts, threads, max_passes, movers, rests, redraw):
        # A mode's unused arrays are None, which crosses as NULL.
        return lib.repro_advance_trips(
            mode, _addr(pos),
            None if target is None else _addr(target), _addr(dest),
            None if on_second_leg is None else _addr(on_second_leg),
            None if turns is None else _addr(turns),
            None if arrivals is None else _addr(arrivals),
            None if pause_left is None else _addr(pause_left),
            None if speeds is None else _addr(speeds),
            _addr(active), n, budget, speed, eps, eps_t, pause_time, side, v_min, v_range,
            _addr(bitgens), _addr(units), _addr(unit_starts), unit_starts.shape[0] - 1,
            threads, max_passes, _addr(movers), _addr(rests), _addr(redraw),
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

    def zone_counts_core(pos, n, ell, m, cz_mask, informed, open_zones, left):
        lib.repro_zone_counts(
            _addr(pos), open_zones.shape[0], n, ell, m,
            _addr(cz_mask), _addr(informed), _addr(open_zones), _addr(left),
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
