/* One document of SGNS updates: the compiled form of sgns._numpy_step, with
 * the same arguments. Compiled with -ffp-contract=off, so each product rounds
 * as it does in numpy. negs holds `negatives` noise ids per (center, context)
 * pair, in center order. Returns -1 if the scratch rows cannot be allocated. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define LOGE2 0.693147180559945309417232121458176568

/* exp(-logaddexp(0, -x)) with the branches of numpy's npy_logaddexp */
static double sigmoid(double x)
{
    double l = x == 0.0 ? LOGE2 : x > 0.0 ? log1p(exp(-x)) : -x + log1p(exp(x));
    return exp(-l);
}

/* u.v in four independent partial sums: the additions do not wait on each
 * other, and the order, hence the result, does not depend on the flags */
static double dot(const double *u, const double *v, int64_t dim)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t j = 0;
    for (; j + 4 <= dim; j += 4)
        for (int t = 0; t < 4; t++)
            acc[t] += u[j + t] * v[j + t];
    double sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (; j < dim; j++)
        sum += u[j] * v[j];
    return sum;
}

int sgns_document(const int64_t *kept, const int64_t *shrink, const int64_t *negs,
                  int64_t n, int64_t negatives, int64_t dim, double lr,
                  double *w_in, double *w_out)
{
    int64_t cap = 0;
    for (int64_t i = 0; i < n; i++)
        cap = shrink[i] > cap ? shrink[i] : cap;
    cap = (2 * cap < n ? 2 * cap : n) * (1 + negatives); /* rows of one center */
    int64_t *rows = malloc(cap * sizeof *rows);
    double *coeff = malloc(cap * sizeof *coeff), *grad = malloc(dim * sizeof *grad);
    int ok = rows != NULL && coeff != NULL && grad != NULL;

    for (int64_t i = 0; ok && i < n; i++) {
        /* the context words, then the noise draws that miss their own pair's */
        int64_t lo = i >= shrink[i] ? i - shrink[i] : 0;
        int64_t hi = i + shrink[i] + 1 < n ? i + shrink[i] + 1 : n;
        int64_t m = 0, k;
        for (int64_t j = lo; j < hi; j++)
            if (j != i)
                rows[m++] = kept[j];
        k = m;
        for (int64_t p = 0; p < m; p++, negs += negatives)
            for (int64_t q = 0; q < negatives; q++)
                if (negs[q] != rows[p])
                    rows[k++] = negs[q];

        /* every score and the center gradient see the pre-update rows */
        double *v = w_in + kept[i] * dim;
        for (int64_t j = 0; j < dim; j++)
            grad[j] = 0.0;
        for (int64_t r = 0; r < k; r++) {
            const double *u = w_out + rows[r] * dim;
            coeff[r] = sigmoid(dot(u, v, dim)) - (r < m ? 1.0 : 0.0);
            for (int64_t j = 0; j < dim; j++)
                grad[j] += coeff[r] * u[j];
        }
        /* w_out first, as its step needs the pre-update center; the matrices
         * are distinct, so this equals numpy's order. Repeated rows update in
         * row order, as np.subtract.at does. */
        for (int64_t r = 0; r < k; r++)
            for (int64_t j = 0; j < dim; j++)
                w_out[rows[r] * dim + j] -= lr * (coeff[r] * v[j]);
        for (int64_t j = 0; j < dim; j++)
            v[j] -= lr * grad[j];
    }
    free(rows);
    free(coeff);
    free(grad);
    return ok ? 0 : -1;
}
