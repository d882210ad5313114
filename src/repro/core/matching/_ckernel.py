"""Optional compiled backend for the streaming-placement kernel.

The streaming placement loop is inherently sequential (every placement
changes the state every later score reads), so it cannot be batched in
numpy; the per-node interpreter overhead is the floor.  This module
removes that floor when a system C compiler is present: the whole loop
is a single C function (embedded below, ~IEEE-strict ``-O2``), compiled
on first use into a cached shared object and called through
``ctypes``.  Nothing is installed — no build-time dependency, no wheel;
if compilation fails for any reason the kernel silently stays on the
numpy path.

Semantics match the numpy kernel exactly:

* counts and the ``current`` matrix hold integer-valued doubles, so all
  accumulation is exact regardless of summation order;
* the cold path replays the legacy ops verbatim (sequential CDF, same
  comparisons), so cold placements are bitwise identical;
* warm scores use the same reassociated gain formula as the numpy
  path; sums are plain sequential C reductions, which differ from the
  numpy pairwise tree by ulps — absorbed by the relative tie band
  (see ``kernel.tie_threshold``);
* ties are enumerated in ascending group order with the same
  pre-drawn uniform consumed the same way.

Compilation, caching and the environment knobs
(``REPRO_NO_CKERNEL``, ``CC``, ``REPRO_CKERNEL_CACHE``) are shared
with the attribute kernels via :mod:`repro.core.ccompile`.
"""

from __future__ import annotations

import numpy as np

from ..ccompile import load_once

__all__ = ["load_ckernel"]

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Return codes shared by both streams. */
#define OK 0
#define EXHAUSTED 1

static int64_t cold_choice(
    int64_t k,
    const int64_t *group_sizes,
    const int64_t *loads,
    double u,
    int32_t proportional,
    double *rem,
    double *cdf)
{
    double total = 0.0;
    for (int64_t j = 0; j < k; ++j) {
        double r = (double)group_sizes[j] - (double)loads[j];
        if (r < 0.0) r = 0.0;
        rem[j] = r;
        total += r;
    }
    if (!(total > 0.0)) return -1;
    if (!proportional) {
        int64_t best = 0;
        for (int64_t j = 1; j < k; ++j)
            if (rem[j] > rem[best]) best = j;
        return best;
    }
    double acc = 0.0;
    for (int64_t j = 0; j < k; ++j) {
        acc += rem[j] / total;
        cdf[j] = acc;
    }
    int64_t idx = 0;
    while (idx < k && cdf[idx] <= u) idx++;
    if (idx >= k) {
        /* cdf[k-1] landed one ulp below 1.0 and u fell beyond it:
           place into the last group with remaining capacity. */
        for (idx = k - 1; idx > 0 && rem[idx] <= 0.0; --idx) {}
    }
    return idx;
}

int64_t sbm_part_stream(
    int64_t n, int64_t k,
    const int64_t *indptr, const int64_t *neighbors,
    const int64_t *order,
    const int64_t *group_sizes,
    const double *target,
    const double *uniforms,
    int32_t capacity_weighting, int32_t proportional,
    int32_t neg_divide,
    int64_t *assignment,   /* length n, prefilled -1 */
    double *work,          /* k*k + 6*k doubles, zeroed */
    int64_t *iwork,        /* 2*k, zeroed */
    int64_t *err_step)
{
    double *current = work;
    double *cnt    = work + k * k;
    double *score  = cnt + k;
    double *rem    = score + k;
    double *cdf    = rem + k;
    double *weight = cdf + k;
    double *wclip  = weight + k;
    int64_t *loads = iwork;
    int64_t *nz    = iwork + k;

    for (int64_t j = 0; j < k; ++j) {
        double w = group_sizes[j] > 0
            ? 1.0 - (double)loads[j] / (double)group_sizes[j]
            : 0.0;
        weight[j] = w;
        wclip[j] = w > 1e-9 ? w : 1e-9;
    }

    for (int64_t step = 0; step < n; ++step) {
        int64_t v = order[step];
        int64_t s = 0;
        for (int64_t j = 0; j < k; ++j) cnt[j] = 0.0;
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            int64_t a = assignment[neighbors[e]];
            if (a >= 0) {
                if (cnt[a] == 0.0) nz[s++] = a;
                cnt[a] += 1.0;
            }
        }
        int64_t choice;
        if (s == 0) {
            choice = cold_choice(
                k, group_sizes, loads, uniforms[step],
                proportional, rem, cdf);
            if (choice < 0) { *err_step = step; return EXHAUSTED; }
        } else {
            double S2 = 0.0;
            for (int64_t i = 0; i < s; ++i) {
                double cv = cnt[nz[i]];
                S2 += cv * cv;
            }
            double best = -INFINITY;
            for (int64_t t = 0; t < k; ++t) {
                if (loads[t] >= group_sizes[t]) {
                    score[t] = -INFINITY;
                    continue;
                }
                const double *cur = current + t * k;
                const double *tg = target + t * k;
                double R = 0.0;
                for (int64_t i = 0; i < s; ++i) {
                    int64_t j = nz[i];
                    R += (cur[j] - tg[j]) * cnt[j];
                }
                double d = cur[t] - tg[t];
                double ct = cnt[t];
                double gain = ct * (2.0 * d + ct) - 4.0 * R - 2.0 * S2;
                double sc;
                if (!capacity_weighting) sc = gain;
                else if (!neg_divide) sc = gain * weight[t];
                else sc = gain >= 0.0
                    ? gain * weight[t]
                    : gain / wclip[t];
                score[t] = sc;
                if (sc > best) best = sc;
            }
            if (best == -INFINITY) { *err_step = step; return EXHAUSTED; }
            double ab = fabs(best);
            double thresh = best - 1e-12 * (ab > 1.0 ? ab : 1.0);
            int64_t ncand = 0, first = -1;
            for (int64_t t = 0; t < k; ++t) {
                if (score[t] >= thresh) {
                    if (first < 0) first = t;
                    ncand++;
                }
            }
            if (ncand == 1) {
                choice = first;
            } else {
                double maxrem = -INFINITY;
                int64_t topcount = 0;
                for (int64_t t = 0; t < k; ++t) {
                    if (score[t] < thresh) continue;
                    double r = (double)group_sizes[t]
                        - (double)loads[t];
                    if (r > maxrem) { maxrem = r; topcount = 1; }
                    else if (r == maxrem) topcount++;
                }
                int64_t pick = topcount > 1
                    ? (int64_t)(uniforms[step] * (double)topcount)
                    : 0;
                choice = first;
                int64_t seen = 0;
                for (int64_t t = 0; t < k; ++t) {
                    if (score[t] < thresh) continue;
                    double r = (double)group_sizes[t]
                        - (double)loads[t];
                    if (r != maxrem) continue;
                    if (seen == pick) { choice = t; break; }
                    seen++;
                }
            }
            /* Legacy update order: row +=, column +=, diagonal -=. */
            double *crow = current + choice * k;
            for (int64_t i = 0; i < s; ++i) {
                int64_t j = nz[i];
                crow[j] += cnt[j];
            }
            for (int64_t i = 0; i < s; ++i) {
                int64_t j = nz[i];
                current[j * k + choice] += cnt[j];
            }
            crow[choice] -= cnt[choice];
        }
        assignment[v] = choice;
        loads[choice] += 1;
        if (group_sizes[choice] > 0) {
            double w = 1.0
                - (double)loads[choice] / (double)group_sizes[choice];
            weight[choice] = w;
            wclip[choice] = w > 1e-9 ? w : 1e-9;
        }
    }
    return OK;
}

int64_t ldg_stream(
    int64_t n, int64_t k,
    const int64_t *indptr, const int64_t *neighbors,
    const int64_t *order,
    const int64_t *capacities,
    const double *uniforms,   /* may be NULL when has_ties == 0 */
    int32_t has_ties,
    int64_t *assignment,      /* length n, prefilled -1 */
    double *work,             /* 2*k doubles, zeroed */
    int64_t *iwork,           /* k, zeroed */
    int64_t *err_step)
{
    double *cnt = work;
    double *weight = work + k;
    int64_t *loads = iwork;

    for (int64_t j = 0; j < k; ++j)
        weight[j] = capacities[j] > 0
            ? 1.0 - (double)loads[j] / (double)capacities[j]
            : -INFINITY;

    for (int64_t step = 0; step < n; ++step) {
        int64_t v = order[step];
        for (int64_t j = 0; j < k; ++j) cnt[j] = 0.0;
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            int64_t a = assignment[neighbors[e]];
            if (a >= 0) cnt[a] += 1.0;
        }
        /* Scores are recomputed per pass below; with k small that is
           cheaper than a third scratch array. */
        double best = -INFINITY;
        int64_t am = -1;
        for (int64_t t = 0; t < k; ++t) {
            double sc = loads[t] >= capacities[t]
                ? -INFINITY
                : cnt[t] * weight[t];
            if (sc > best) { best = sc; am = t; }
        }
        if (am < 0) { *err_step = step; return EXHAUSTED; }
        int64_t ncand = 0;
        for (int64_t t = 0; t < k; ++t) {
            double sc = loads[t] >= capacities[t]
                ? -INFINITY
                : cnt[t] * weight[t];
            if (sc == best) ncand++;
        }
        int64_t choice = am;
        if (ncand > 1) {
            if (has_ties) {
                int64_t pick =
                    (int64_t)(uniforms[step] * (double)ncand);
                int64_t seen = 0;
                for (int64_t t = 0; t < k; ++t) {
                    double sc = loads[t] >= capacities[t]
                        ? -INFINITY
                        : cnt[t] * weight[t];
                    if (sc != best) continue;
                    if (seen == pick) { choice = t; break; }
                    seen++;
                }
            } else {
                int64_t bestload = -1;
                for (int64_t t = 0; t < k; ++t) {
                    double sc = loads[t] >= capacities[t]
                        ? -INFINITY
                        : cnt[t] * weight[t];
                    if (sc != best) continue;
                    if (bestload < 0 || loads[t] < bestload) {
                        bestload = loads[t];
                        choice = t;
                    }
                }
            }
        }
        assignment[v] = choice;
        loads[choice] += 1;
        if (capacities[choice] > 0)
            weight[choice] = 1.0
                - (double)loads[choice] / (double)capacities[choice];
    }
    return OK;
}
"""

class _CKernel:
    """The compiled stream functions, their outputs allocated here.

    Inputs arrive as the contiguous arrays of the prototypes, checked
    by :mod:`repro.core.matching.kernel` (``prep`` included).
    """

    def __init__(self, lib):
        self._lib = lib

    def sbm_part_stream(
        self, prep, group_sizes, target, uniforms,
        capacity_weighting, cold_start, negative_gain,
    ):
        n, k = prep.num_nodes, group_sizes.size
        assignment = np.full(n, -1, dtype=np.int64)
        if n and self._lib.sbm_part_stream(
            n, k, prep.indptr, prep.neighbors, prep.order,
            group_sizes, target, uniforms,
            int(bool(capacity_weighting)),
            int(cold_start == "proportional"),
            int(negative_gain == "divide"),
            assignment, np.zeros(k * k + 6 * k),
            np.zeros(2 * k, dtype=np.int64), np.zeros(1, dtype=np.int64),
        ):
            raise RuntimeError("group capacities exhausted mid-stream")
        return assignment

    def ldg_stream(self, prep, capacities, uniforms):
        n, k = prep.num_nodes, capacities.size
        assignment = np.full(n, -1, dtype=np.int64)
        has_ties = uniforms is not None
        if n and self._lib.ldg_stream(
            n, k, prep.indptr, prep.neighbors, prep.order, capacities,
            uniforms if has_ties else np.empty(0), int(has_ties),
            assignment, np.zeros(2 * k), np.zeros(k, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        ):
            raise RuntimeError("no partition with remaining capacity")
        return assignment


#: ``load_ckernel()``: the compiled kernel, or ``None`` when
#: unavailable (one attempt per process, silent numpy fallback).
load_ckernel = load_once(_SOURCE, "matchkernel", _CKernel)
