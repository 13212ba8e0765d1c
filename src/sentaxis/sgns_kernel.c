/* The whole SGNS training loop: the compiled form of sgns._train_documents
 * with sgns._numpy_step. Compiled with -ffp-contract=off, so each product
 * rounds as it does in numpy. Every random number comes from numpy's own
 * generator through the functions Generator.random and Generator.integers
 * call, in the order the numpy loop draws them, so both paths consume the
 * same stream. Linked against numpy's libnpyrandom.a.
 *
 * Each center is one pass of document, in phases, each a loop over all its
 * rows: its noise draws, mapped to words; its rows; their scores, four rows
 * at a time; their sigmoids; the center gradient, 16 columns at a time; then
 * the updates. The rows or columns of one phase are independent chains, so
 * the body does not wait on one row's dot -> sigmoid -> gradient chain at a
 * time, and every sum keeps the order the per-row loop gave it, so every bit
 * stays.
 *
 * On x86-64 with glibc, the update body (document, dot4, gradient, sigmoid)
 * is built twice, for AVX2 and for the baseline ISA, and the loader picks
 * one per CPU through an ifunc: the same .so runs anywhere. All four carry
 * the clone, so the AVX2 body calls the AVX2 helpers. Both bodies give the
 * same bits: element-wise IEEE arithmetic rounds alike in any vector width,
 * -ffp-contract=off forbids FMA in either, and the sources of dot4 and
 * gradient fix their summation orders. Noise words are found through a
 * guide table of max(vocab, 4096) buckets, sized by the caller (see
 * noise_word), which gives exactly np.searchsorted's index. */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* stdlib.h has defined __GLIBC__ by here; target_clones needs its ifunc */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

/* declared in numpy/random/distributions.h, which also pulls in Python.h */
extern void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
extern void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                       intptr_t cnt, bool use_masked, uint64_t *out);

#define LOGE2 0.693147180559945309417232121458176568

/* exp(-logaddexp(0, -x)) with the branches of numpy's npy_logaddexp */
CLONED
static double sigmoid(double x)
{
    double l = x == 0.0 ? LOGE2 : x > 0.0 ? log1p(exp(-x)) : -x + log1p(exp(x));
    return exp(-l);
}

/* Four doubles, or two, in one value: element-wise arithmetic on them
 * rounds lane by lane as on doubles, in whatever width the clone has. They
 * are loaded and stored through memcpy, never passed or returned by value,
 * as that would change the ABI between the clones (-Wpsabi). */
typedef double v4d __attribute__((vector_size(32)));
typedef double v2d __attribute__((vector_size(16)));
#define LOAD(x, p) memcpy(&(x), (p), sizeof(x))

/* u[t].v for four rows t at once. Each row's sum is four partial sums, of
 * the columns j = 0, 1, 2 and 3 mod 4, added as (0 + 1) + (2 + 3), then the
 * columns past the last whole four one by one: an order that does not
 * depend on the flags. The four rows' additions are independent chains. */
CLONED
static void dot4(const double *const u[4], const double *v, int64_t dim, double *out)
{
    v4d acc[4] = {{0.0}};
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4) {
        v4d x;
        LOAD(x, v + j);
        for (int t = 0; t < 4; t++) {
            v4d y;
            LOAD(y, u[t] + j);
            acc[t] += y * x;
        }
    }
    for (int t = 0; t < 4; t++) {
        double sum = (acc[t][0] + acc[t][1]) + (acc[t][2] + acc[t][3]);
        for (int64_t i = j; i < dim; i++)
            sum += u[t][i] * v[i];
        out[t] = sum;
    }
}

/* grad[j] = sum over the rows r, in row order, of coeff[r] * u_r[j]: 16
 * columns at a time, in eight 128-bit sums held across the rows, then one
 * column at a time */
CLONED
static void gradient(const double *w_out, const int64_t *rows, const double *coeff,
                     int64_t k, int64_t dim, double *grad)
{
    int64_t j = 0;
    for (; j + 16 <= dim; j += 16) {
        v2d acc[8] = {{0.0}};
        for (int64_t r = 0; r < k; r++) {
            const double *u = w_out + rows[r] * dim + j;
            v2d c = {coeff[r], coeff[r]};
            for (int q = 0; q < 8; q++) {
                v2d y;
                LOAD(y, u + 2 * q);
                acc[q] += c * y;
            }
        }
        memcpy(grad + j, acc, sizeof(acc));
    }
    for (; j < dim; j++) {
        double acc = 0.0;
        for (int64_t r = 0; r < k; r++)
            acc += coeff[r] * w_out[rows[r] * dim + j];
        grad[j] = acc;
    }
}

/* guide[b] = np.searchsorted(cdf, b / buckets) (side "left") for each of the
 * buckets of [0, 1); cdf never decreases, and neither does b / buckets */
static void guide_table(const double *cdf, int64_t vocab, int64_t *guide, int64_t buckets)
{
    int64_t i = 0;
    for (int64_t b = 0; b < buckets; b++) {
        double edge = (double)b / (double)buckets;
        while (i < vocab && cdf[i] < edge)
            i++;
        guide[b] = i;
    }
}

/* np.searchsorted(cdf, u) (side "left"), clamped to the last word: the cdf
 * tail can round below 1.0. The walk starts at u's bucket and steps back
 * while the entry before is >= u, then forward while the entry is < u, so it
 * ends at the first entry >= u however the bucket edges rounded. */
static int64_t noise_word(const double *cdf, const int64_t *guide, int64_t buckets,
                          int64_t vocab, double u)
{
    int64_t b = (int64_t)(u * (double)buckets);
    int64_t i = guide[b < buckets ? b : buckets - 1];
    while (i > 0 && cdf[i - 1] >= u)
        i--;
    while (i < vocab && cdf[i] < u)
        i++;
    return i < vocab ? i : vocab - 1;
}

/* One document of updates, the compiled form of sgns._numpy_step. Each
 * center draws `negatives` noise words per (center, context) pair, in pair
 * order, through draws, which holds those of one center; rows holds the
 * rows of one center, coeff three more, and grad dim entries. Each center
 * runs in the phases the top of this file describes. */
CLONED
static void document(const int64_t *kept, const int64_t *shrink, int64_t n, int64_t negatives,
                     int64_t dim, double lr, double *w_in, double *w_out, bitgen_t *bitgen,
                     const double *cdf, const int64_t *guide, int64_t buckets, int64_t vocab,
                     double *draws, int64_t *rows, double *coeff, double *grad)
{
    for (int64_t i = 0; i < n; i++) {
        /* the context words, then the noise draws that miss their own pair's */
        int64_t lo = i >= shrink[i] ? i - shrink[i] : 0;
        int64_t hi = i + shrink[i] + 1 < n ? i + shrink[i] + 1 : n;
        int64_t m = 0, k, r;
        for (int64_t j = lo; j < hi; j++)
            if (j != i)
                rows[m++] = kept[j];
        k = m;
        random_standard_uniform_fill(bitgen, m * negatives, draws);
        for (int64_t p = 0; p < m; p++)
            for (int64_t q = 0; q < negatives; q++) {
                int64_t word = noise_word(cdf, guide, buckets, vocab, draws[p * negatives + q]);
                if (word != rows[p])
                    rows[k++] = word;
            }

        /* every score and the center gradient see the pre-update rows; the
         * spare lanes of the last four score row k - 1 again, into coeff's
         * spare entries */
        double *v = w_in + kept[i] * dim;
        for (r = 0; r < k; r += 4) {
            const double *u[4];
            for (int t = 0; t < 4; t++)
                u[t] = w_out + rows[r + t < k ? r + t : k - 1] * dim;
            dot4(u, v, dim, coeff + r);
        }
        for (r = 0; r < k; r++)
            coeff[r] = sigmoid(coeff[r]) - (r < m ? 1.0 : 0.0);
        gradient(w_out, rows, coeff, k, dim, grad);
        /* w_out first, as its step needs the pre-update center; the matrices
         * are distinct, so this equals numpy's order. Repeated rows update in
         * row order, as np.subtract.at does. */
        for (r = 0; r < k; r++)
            for (int64_t j = 0; j < dim; j++)
                w_out[rows[r] * dim + j] -= lr * (coeff[r] * v[j]);
        for (int64_t j = 0; j < dim; j++)
            v[j] -= lr * grad[j];
    }
}

/* Every epoch over every document: ids[offsets[d]:offsets[d + 1]] are the
 * vocabulary ids of document d. The caller sizes the scratch: kept, shrink
 * and uniform hold the longest document, rows the rows of one center, coeff
 * three more, grad dim entries, draws one center's noise draws, and guide
 * its buckets entries. Per document the generator gives the keep mask, the
 * window radii, then each center's noise draws as document reaches it. */
void sgns_train(const int64_t *ids, const int64_t *offsets, int64_t n_docs,
                const double *keep_p, const double *noise_cdf, int64_t vocab,
                int64_t epochs, int64_t window, int64_t negatives, int64_t dim,
                double lr0, double lr_floor, int64_t planned,
                double *w_in, double *w_out, bitgen_t *bitgen,
                int64_t *kept, int64_t *shrink, double *uniform, int64_t *rows, double *coeff,
                double *grad, double *draws, int64_t *guide, int64_t buckets)
{
    int64_t tokens = 0;
    guide_table(noise_cdf, vocab, guide, buckets);
    for (int64_t e = 0; e < epochs; e++) {
        for (int64_t d = 0; d < n_docs; d++) {
            const int64_t *doc = ids + offsets[d];
            int64_t size = offsets[d + 1] - offsets[d], n = 0;
            random_standard_uniform_fill(bitgen, size, uniform);
            for (int64_t j = 0; j < size; j++)
                if (uniform[j] < keep_p[doc[j]])
                    kept[n++] = doc[j];
            tokens += size;
            if (n < 2)
                continue;
            double lr = lr0 * (1.0 - (double)tokens / (double)(planned + 1));
            lr = lr > lr_floor ? lr : lr_floor;
            random_bounded_uint64_fill(bitgen, 1, (uint64_t)(window - 1), n, false,
                                       (uint64_t *)shrink);
            document(kept, shrink, n, negatives, dim, lr, w_in, w_out, bitgen, noise_cdf, guide,
                     buckets, vocab, draws, rows, coeff, grad);
        }
    }
}
