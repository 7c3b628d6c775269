/* Compiled closed-loop kernel with two entry points.
 *
 * ofo_run_segment steps one constant-disturbance segment of a loop with a
 * scalar input and mirrors ofo.engine.pure.run_segment expression by
 * expression.  Built with -ffp-contract=off and never -ffast-math, so both
 * kernels produce bit-identical trajectories; any change here must be
 * replicated there.
 *
 * ofo_format_rows writes a segment's samples as CSV rows, each field the
 * `%.12g` printout of its double in plain decimal notation, byte for byte
 * as ofo.engine.pure.format_rows does.  The 12 significant digits come
 * from one double product with an exact power of ten, |x| 10^k for
 * -22 <= k <= 44, or about 1e-33 <= |x| < 1e34, whenever its rounding
 * cannot change them (Clinger's fast path); other values go through
 * snprintf("%.11e"), whose 12 printed digits are the same.  Both are placed
 * around the decimal point the same way, so no exponent form is built.
 *
 * There is no mutable global or static state: each call touches only its
 * arguments and, for ofo_format_rows, the memory it allocates and hands to
 * its caller.
 */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int n, p, sine, sqrtplus, projected;
    const double *a, *b, *drift, *c, *s0;
    double lo, hi, cq1, cq2, mu4, alpha, beta;
    double *y, *gy;            /* scratch */
    double xi;                 /* weight of V */
    const double *lp, *xstar;
    double ustar;
    double *dx, *pdx;          /* scratch */
} field_t;

/* out = M v for the rows x cols row-major M.  Each entry is its own sum
 * from 0.0, left to right; four rows are summed side by side, so v[j] is
 * loaded once for all four, and each sum still adds its terms in order. */
static void matvec(const double *m, int rows, int cols, const double *v, double *out)
{
    int i = 0;
    for (; i + 4 <= rows; i += 4) {
        const double *m0 = m + (long)i * cols, *m1 = m0 + cols, *m2 = m1 + cols, *m3 = m2 + cols;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (int j = 0; j < cols; j++) {
            double vj = v[j];
            s0 += m0[j] * vj;
            s1 += m1[j] * vj;
            s2 += m2[j] * vj;
            s3 += m3[j] * vj;
        }
        out[i] = s0;
        out[i + 1] = s1;
        out[i + 2] = s2;
        out[i + 3] = s3;
    }
    for (; i < rows; i++) {
        const double *mi = m + (long)i * cols;
        double acc = 0.0;
        for (int j = 0; j < cols; j++)
            acc += mi[j] * v[j];
        out[i] = acc;
    }
}

/* Writes dx/dt into kx and returns du/dt. */
static double eval_field(const field_t *f, const double *xs, double us, double *kx)
{
    int n = f->n, p = f->p;
    double acc, fac, pu, v;
    matvec(f->c, p, n, xs, f->y);
    if (f->sine) {
        pu = us + sin(us);
        fac = 1.0 + cos(us);
    } else {
        pu = us;
        fac = 1.0;
    }
    matvec(f->a, n, n, xs, kx);
    for (int i = 0; i < n; i++)
        kx[i] = (kx[i] + f->b[i] * pu) + f->drift[i];
    acc = 2.0 * f->cq1 * us + f->mu4 * us;
    if (f->sqrtplus) {
        f->gy[0] = f->y[0] / sqrt(f->y[0] * f->y[0] + 1.0);
    } else {
        for (int i = 0; i < p; i++)
            f->gy[i] = 2.0 * f->cq2 * f->y[i];
    }
    for (int i = 0; i < p; i++)
        acc += (f->s0[i] * fac) * f->gy[i];
    if (f->projected) {
        v = us - f->beta * acc;
        if (v < f->lo)
            v = f->lo;
        else if (v > f->hi)
            v = f->hi;
        return f->alpha * (v - us);
    }
    return -f->alpha * acc;
}

/* dst = base + h * k, elementwise. */
static void advance(int len, double *dst, const double *base, double h, const double *k)
{
    for (int j = 0; j < len; j++)
        dst[j] = base[j] + h * k[j];
}

/* The time of the record after `step` of `n_tot` steps. */
static double step_time(long step, long n_tot, double t0, double t_end, double dt)
{
    return step == n_tot ? t_end : t0 + (double)step * dt;
}

/* Appends record k: its time, x, u, y = C x and
 * V = max(xi (x-x*)^T P (x-x*), (u-u*)^2 / 2), summed in the order of
 * ofo.sim.lyapunov_trace. */
static void record(const field_t *f, long k, double t, const double *x, double u,
                   double *rec_t, double *rec_x, double *rec_u, double *rec_y,
                   double *rec_v)
{
    int n = f->n, p = f->p;
    rec_t[k] = t;
    for (int j = 0; j < n; j++)
        rec_x[k * n + j] = x[j];
    rec_u[k] = u;
    matvec(f->c, p, n, x, rec_y + k * p);
    double vx = 0.0, vu, d;
    for (int j = 0; j < n; j++)
        f->dx[j] = x[j] - f->xstar[j];
    matvec(f->lp, n, n, f->dx, f->pdx);
    for (int i = 0; i < n; i++)
        vx += f->dx[i] * f->pdx[i];
    d = u - f->ustar;
    vu = 0.5 * (d * d);
    vx = f->xi * vx;
    rec_v[k] = vu > vx ? vu : vx;
}

/* Integrates one constant-disturbance segment.  `in` holds the inputs the
 * kernel only reads, back to back: a (n*n), b (n), drift (n), c (p*n),
 * s0 (p), lp (n*n) and xstar (n).  x holds the start state and state[0]
 * the start input, and both come back as the final ones; state[1] gets the
 * worst box violation, and state[2] the time of the first step whose state
 * is not finite, and is left as it was when there is none.  The 7n + 2p
 * values after those three are the kernel's scratch.  The record buffers
 * hold 2 + n_tot / stride records.  Returns the number of records written. */
long ofo_run_segment(int n, int p, int sine, int sqrtplus, int projected, const double *in,
                     double cq1, double cq2, double mu4, double alpha, double beta,
                     double lo, double hi,
                     double t0, double t_end, double dt, long n_full, double last_dt,
                     long stride, int include_final, double xi, double ustar,
                     double *x, double *state,
                     double *rec_t, double *rec_x, double *rec_u, double *rec_y, double *rec_v)
{
    double *xt = state + 3, *kx1 = xt + n, *kx2 = kx1 + n, *kx3 = kx2 + n, *kx4 = kx3 + n;
    double *dx = kx4 + n, *pdx = dx + n, *y = pdx + n, *gy = y + p;
    const double *a = in, *b = a + (long)n * n, *drift = b + n, *c = drift + n;
    const double *s0 = c + (long)p * n, *lp = s0 + p, *xstar = lp + (long)n * n;
    field_t f = {n, p, sine, sqrtplus, projected, a, b, drift, c, s0,
                 lo, hi, cq1, cq2, mu4, alpha, beta, y, gy, xi, lp, xstar, ustar, dx, pdx};

    long n_tot = n_full + (last_dt > 0.0 ? 1 : 0);
    long k = 0;
    double d, ku1, ku2, ku3, ku4, violation = 0.0, uu = state[0];
    record(&f, k++, step_time(0, n_tot, t0, t_end, dt), x, uu,
           rec_t, rec_x, rec_u, rec_y, rec_v);
    for (long i = 0; i < n_tot; i++) {
        double h = i < n_full ? dt : last_dt, h2 = 0.5 * h, h6 = h / 6.0;
        ku1 = eval_field(&f, x, uu, kx1);
        advance(n, xt, x, h2, kx1);
        ku2 = eval_field(&f, xt, uu + h2 * ku1, kx2);
        advance(n, xt, x, h2, kx2);
        ku3 = eval_field(&f, xt, uu + h2 * ku2, kx3);
        advance(n, xt, x, h, kx3);
        ku4 = eval_field(&f, xt, uu + h * ku3, kx4);
        for (int j = 0; j < n; j++)
            x[j] = x[j] + h6 * (kx1[j] + 2.0 * kx2[j] + 2.0 * kx3[j] + kx4[j]);
        uu = uu + h6 * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4);
        long step = i + 1;
        int ok = isfinite(uu);
        for (int j = 0; j < n; j++)
            if (!isfinite(x[j]))
                ok = 0;
        if (!ok) {
            state[2] = step_time(step, n_tot, t0, t_end, dt);
            break;
        }
        if (projected) {
            d = uu - hi;
            if (d > violation)
                violation = d;
            d = lo - uu;
            if (d > violation)
                violation = d;
        }
        if ((step % stride == 0 && step < n_tot) || (step == n_tot && include_final))
            record(&f, k++, step_time(step, n_tot, t0, t_end, dt), x, uu,
                   rec_t, rec_x, rec_u, rec_y, rec_v);
    }
    state[0] = uu;
    state[1] = violation;
    return k;
}

/* The longest field either path writes: a product-path field is at most
 * 47 bytes ("-0." then 32 zeros and 12 digits, as its decimal point falls
 * after -32 to 35 of them), a snprintf field at most 338 ("-0." then 323
 * zeros and 12 digits, for -9.88131291682e-324). */
#define FIELD_MAX 47
#define FALLBACK_MAX 338

/* Puts the digits [d, d + nd) with the decimal point after the first
 * `point` of them, padded with zeros on either side as needed, and returns
 * the cursor after them.  It copies 12 digits whatever nd is, so d needs
 * 12 readable bytes after its 12 digits, and it writes 14 - point bytes for
 * point <= 0, max(point, 12) for point >= nd and point + 13 otherwise: with
 * a sign, within the FIELD_MAX + 1 or FALLBACK_MAX + 1 bytes of its path. */
static char *place_digits(const char *d, int nd, int point, char *o)
{
    if (point <= 0) {
        memcpy(o, "0.", 2);
        for (o += 2; point < 0; point++)
            *o++ = '0';
        memcpy(o, d, 12);
        return o + nd;
    }
    memcpy(o, d, 12);
    if (point >= nd) {
        for (o += nd; nd < point; nd++)
            *o++ = '0';
        return o;
    }
    o[point] = '.';
    memcpy(o + point + 1, d + point, 12);
    return o + nd + 1;
}

/* The two decimal digits of each of 0..99, in order. */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Writes the six decimal digits of v < 10^6, leading zeros included. */
static void six_digits(uint32_t v, char *d)
{
    uint32_t low = v % 10000;
    memcpy(d, DIGIT_PAIRS + 2 * (v / 10000), 2);
    memcpy(d + 2, DIGIT_PAIRS + 2 * (low / 100), 2);
    memcpy(d + 4, DIGIT_PAIRS + 2 * (low % 100), 2);
}

/* 10^0 to 10^22, each exactly a double. */
static const double POW10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* a 10^k for -22 <= k <= 44, with one rounding, or two for k > 22. */
static double scaled(double a, int k)
{
    if (k < 0)
        return a / POW10[-k];
    if (k <= 22)
        return a * POW10[k];
    return (a * POW10[22]) * POW10[k - 22];
}

/* Writes into d the 12 significant digits that `%.12g` prints for a > 0,
 * and sets *e to the decimal exponent E of the first, from the double
 * s = a 10^k, k = 11 - E, for which 10^11 <= s < 10^12.  The estimate of E
 * from a's binary exponent is E or E - 1, and a product of 10^12 + 0.5 or
 * more moves it up.  s is within 2^-52 s < 2.5e-4 of a 10^k, and its
 * fraction is exact as s < 2^52, so rounding s to the nearest integer
 * gives the digits unless that fraction is within 2^-10 of one half.
 * Returns 1 when done and 0, having settled nothing, then and when k is
 * outside [-22, 44]. */
static int product_digits(double a, char *d, int *e)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    /* floor(b log10 2) for 2^b <= a < 2^(b+1), exact for every double's b;
     * a subnormal reads as b = -1023, whose k is above 44 as its own b's is */
    int big_e = ((int)(bits >> 52) - 1023) * 78913 >> 18;
    if (11 - big_e < -22 || 11 - big_e > 44)
        return 0;
    double s = scaled(a, 11 - big_e);
    if (s >= 1e12 + 0.5) {                  /* a >= 10^(E+1): E was one too low */
        if (11 - ++big_e < -22)
            return 0;
        s = scaled(a, 11 - big_e);
    }
    uint64_t n = (uint64_t)s;               /* floor(s), as 0 < s < 10^12 + 0.5 */
    double frac = s - (double)n;
    if (fabs(frac - 0.5) < 0x1p-10)
        return 0;
    n += frac > 0.5;
    if (n == UINT64_C(1000000000000)) {     /* rounded up to the next power of ten */
        big_e++;
        n /= 10;
    }
    six_digits((uint32_t)(n / 1000000), d);
    six_digits((uint32_t)(n % 1000000), d + 6);
    *e = big_e;
    return 1;
}

/* Writes into d the 12 significant digits of a > 0 as snprintf("%.11e")
 * prints them, in the layout d.ddddddddddde(+|-)dd[d], and returns the
 * decimal exponent of the first. */
static int printed_digits(double a, char *d)
{
    char text[24];
    snprintf(text, sizeof text, "%.11e", a);
    d[0] = text[0];
    memcpy(d + 1, text + 2, 11);
    return atoi(text + 14);
}

/* Puts x as `%.12g` in plain notation, as ofo.engine.params.plain_field
 * ("%.12g" % x) does, followed by a comma, in the FALLBACK_MAX + 1 bytes
 * at o: its 12 digits, less the trailing zeros `%.12g` drops, around the
 * decimal point.  Returns the cursor after the comma, or, for inf or nan,
 * sets *bad and returns o, having put nothing. */
static char *put_double(double x, char *o, int *bad)
{
    char d[24];
    int e, nd = 12;
    if (!isfinite(x)) {
        *bad = 1;
        return o;
    }
    if (x == 0.0) {
        *o++ = '0';
    } else {
        if (!product_digits(fabs(x), d, &e))
            e = printed_digits(fabs(x), d);
        while (d[nd - 1] == '0')
            nd--;
        if (x < 0)
            *o++ = '-';
        o = place_digits(d, nd, e + 1, o);
    }
    *o++ = ',';
    return o;
}

/* Puts [s, s + len) followed by `end`, and returns the cursor after them. */
static char *put_text(const char *s, long len, char end, char *o)
{
    memcpy(o, s, (size_t)len);
    o[len] = end;
    return o + len + 1;
}

/* Writes the rows of a segment's samples as CSV lines
 * t,x1..xn,u,y1..yp,<w_text>,V,<ustar_text>, each sample `%.12g` in plain
 * notation, into memory it allocates; t, u and v hold one value per row, x
 * n and y p.  Sets *out to that memory, which the caller releases with
 * ofo_free, and returns the number of bytes written.  Returns -1 when a
 * value is inf or nan and -2 when memory cannot be allocated, with *out
 * NULL.  The first allocation holds every row on the product path; a row
 * is begun only with room for its longest form, and the memory grows when
 * snprintf fields leave less. */
long ofo_format_rows(const double *t, const double *x, const double *u,
                     const double *y, const double *v, int n, int p, long rows,
                     const char *w_text, long w_len, const char *ustar_text, long ustar_len,
                     char **out)
{
    long fields = n + p + 3, text = w_len + ustar_len + 2;
    long row_product = fields * (FIELD_MAX + 1) + text;
    long row_max = fields * (FALLBACK_MAX + 1) + text;
    long cap = rows * row_product + (row_max - row_product);
    char *buf = malloc((size_t)cap), *o = buf;
    *out = NULL;
    if (buf == NULL)
        return -2;
    for (long r = 0; r < rows; r++) {
        if (cap - (o - buf) < row_max) {
            long pos = o - buf, grown = 2 * cap > pos + row_max ? 2 * cap : pos + row_max;
            char *more = realloc(buf, (size_t)grown);
            if (more == NULL) {
                free(buf);
                return -2;
            }
            buf = more;
            o = buf + pos;
            cap = grown;
        }
        int bad = 0;
        o = put_double(t[r], o, &bad);
        for (int j = 0; j < n; j++)
            o = put_double(x[r * n + j], o, &bad);
        o = put_double(u[r], o, &bad);
        for (int i = 0; i < p; i++)
            o = put_double(y[r * p + i], o, &bad);
        o = put_text(w_text, w_len, ',', o);
        o = put_double(v[r], o, &bad);
        o = put_text(ustar_text, ustar_len, '\n', o);
        if (bad) {
            free(buf);
            return -1;
        }
    }
    *out = buf;
    return o - buf;
}

/* Releases the memory ofo_format_rows allocated. */
void ofo_free(void *p)
{
    free(p);
}
