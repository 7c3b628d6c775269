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
 * as ofo.engine.pure.format_rows does.  For 2^-36 <= |x| < 2^127 the 12
 * digits are computed exactly in 128-bit integers and placed around the
 * decimal point, so no exponent form is built; other values, and every
 * value on a compiler without __int128, go through snprintf("%.11e"), whose
 * 12 printed digits are the same and are placed the same way.
 *
 * There is no mutable global or static state: each call touches only its
 * arguments and the scratch memory it allocates.
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
    double *dx;                /* scratch */
} field_t;

/* Writes dx/dt into kx and returns du/dt. */
static double eval_field(const field_t *f, const double *xs, double us, double *kx)
{
    int n = f->n, p = f->p;
    double acc, fac, pu, v;
    for (int i = 0; i < p; i++) {
        acc = 0.0;
        for (int j = 0; j < n; j++)
            acc += f->c[i * n + j] * xs[j];
        f->y[i] = acc;
    }
    if (f->sine) {
        pu = us + sin(us);
        fac = 1.0 + cos(us);
    } else {
        pu = us;
        fac = 1.0;
    }
    for (int i = 0; i < n; i++) {
        acc = 0.0;
        for (int j = 0; j < n; j++)
            acc += f->a[i * n + j] * xs[j];
        kx[i] = (acc + f->b[i] * pu) + f->drift[i];
    }
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
    return step == n_tot ? t_end : t0 + step * dt;
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
    for (int i = 0; i < p; i++) {
        double acc = 0.0;
        for (int j = 0; j < n; j++)
            acc += f->c[i * n + j] * x[j];
        rec_y[k * p + i] = acc;
    }
    double vx = 0.0, vu, d;
    for (int j = 0; j < n; j++)
        f->dx[j] = x[j] - f->xstar[j];
    for (int i = 0; i < n; i++) {
        double acc = 0.0;
        for (int j = 0; j < n; j++)
            acc += f->lp[i * n + j] * f->dx[j];
        vx += f->dx[i] * acc;
    }
    d = u - f->ustar;
    vu = 0.5 * (d * d);
    vx = f->xi * vx;
    rec_v[k] = vu > vx ? vu : vx;
}

/* Integrates one constant-disturbance segment from (x, *u), which come back
 * as the final state.  b holds n values and s0 p values.  The record buffers
 * hold 2 + n_tot / stride records.  Returns the number of records written,
 * or -1 when scratch memory cannot be allocated. */
long ofo_run_segment(int n, int p, int sine, int sqrtplus, int projected,
                     const double *a, const double *b, const double *drift,
                     const double *c, const double *s0,
                     double cq1, double cq2, double mu4, double alpha, double beta,
                     double lo, double hi,
                     double t0, double t_end, double dt, long n_full, double last_dt,
                     long stride, int include_final,
                     double xi, const double *lp, const double *xstar, double ustar,
                     double *x, double *u,
                     double *rec_t, double *rec_x, double *rec_u, double *rec_y, double *rec_v,
                     double *max_violation, int *blew_up, double *blowup_time)
{
    double *work = calloc(6 * (size_t)n + 2 * (size_t)p, sizeof(double));
    if (work == NULL)
        return -1;
    double *xt = work, *kx1 = xt + n, *kx2 = kx1 + n, *kx3 = kx2 + n, *kx4 = kx3 + n;
    double *dx = kx4 + n, *y = dx + n, *gy = y + p;
    field_t f = {n, p, sine, sqrtplus, projected, a, b, drift, c, s0,
                 lo, hi, cq1, cq2, mu4, alpha, beta, y, gy, xi, lp, xstar, ustar, dx};

    long n_tot = n_full + (last_dt > 0.0 ? 1 : 0);
    long k = 0;
    double d, ku1, ku2, ku3, ku4, violation = 0.0, uu = *u;
    *blew_up = 0;
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
            *blew_up = 1;
            *blowup_time = step_time(step, n_tot, t0, t_end, dt);
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
    *u = uu;
    *max_violation = violation;
    free(work);
    return k;
}

/* Appends count bytes of src at out + *pos. */
static void put(char *out, long *pos, const char *src, long count)
{
    memcpy(out + *pos, src, (size_t)count);
    *pos += count;
}

static void put_zeros(char *out, long *pos, long count)
{
    memset(out + *pos, '0', (size_t)count);
    *pos += count;
}

/* Puts the digits [d, d + nd) with the decimal point after the first
 * `point` of them, padding with zeros on either side as needed. */
static void place_digits(const char *d, long nd, long point, char *out, long *pos)
{
    if (point <= 0) {
        put(out, pos, "0.", 2);
        put_zeros(out, pos, -point);
        put(out, pos, d, nd);
    } else if (point >= nd) {
        put(out, pos, d, nd);
        put_zeros(out, pos, point - nd);
    } else {
        put(out, pos, d, point);
        put(out, pos, ".", 1);
        put(out, pos, d + point, nd - point);
    }
}

/* The longest field either path writes: an exact-path field is at most
 * 40 bytes (-1.7e38 has 39 integer digits), a fallback field at most 338
 * ("-0." then 323 zeros and 12 digits, for -9.88131291682e-324). */
#define FIELD_MAX 40
#define FALLBACK_MAX 338

/* Puts the finite nonzero x as `%.12g` in plain notation, as
 * ofo.engine.pure.plain_field does.  snprintf("%.11e") prints the same 12
 * digits in the fixed layout [-]d.ddddddddddde(+|-)dd[d]; `%.12g` drops
 * their trailing zeros, and so does this before placing them. */
static void printed_field(double x, char *out, long *pos)
{
    char text[24], d[12];
    const char *c = text + (x < 0);
    snprintf(text, sizeof text, "%.11e", x);
    d[0] = c[0];
    memcpy(d + 1, c + 2, 11);
    long nd = 12;
    while (d[nd - 1] == '0')
        nd--;
    if (x < 0)
        put(out, pos, "-", 1);
    place_digits(d, nd, atoi(c + 14) + 1, out, pos);
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL,
    1000000000000ULL, 10000000000000ULL, 100000000000000ULL,
    1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
    1000000000000000000ULL, 10000000000000000000ULL,
};

/* 10^k for 0 <= k <= 38. */
static u128 pow10_u128(int k)
{
    return k < 20 ? (u128)POW10[k] : (u128)POW10[19] * POW10[k - 19];
}

/* N = round-half-even(m 2^e 10^k) for m < 2^53, computed exactly as the
 * quotient num / den and its remainder: with k >= 0 (then k <= 22 and
 * 1 <= -e <= 88) num = m 10^k and den = 2^-e, a right shift; otherwise
 * (-k <= 38, and e <= 74 or -e <= 13) den = 10^-k, times 2^-e when e < 0. */
static u128 scaled_round(uint64_t m, int e, int k)
{
    u128 q, r, den;
    if (k >= 0) {
        u128 num = (u128)m * pow10_u128(k);
        den = (u128)1 << -e;
        q = num >> -e;
        r = num - (q << -e);
    } else {
        u128 num = e >= 0 ? (u128)m << e : (u128)m;
        den = e >= 0 ? pow10_u128(-k) : pow10_u128(-k) << -e;
        q = num / den;
        r = num - q * den;
    }
    if (r > den - r || (r == den - r && (q & 1)))
        q++;
    return q;
}

/* Puts the finite nonzero x, 2^-36 <= |x| < 2^127, as `%.12g` in plain
 * notation.  Its 12 significant digits N and decimal exponent E come from
 * integer arithmetic on the binary form x = m 2^e, so no float is printed. */
static void exact_field(double x, char *out, long *pos)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int b = (int)((bits >> 52) & 0x7ff) - 1023;           /* 2^b <= |x| < 2^(b+1) */
    uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | (UINT64_C(1) << 52);
    int e = b - 52;
    int big_e = (b * 78913) >> 18;                          /* floor(b log10 2) */
    const u128 top = POW10[12];
    u128 n = scaled_round(m, e, 11 - big_e);
    if (n > top) {                    /* |x| >= 10^(E+1): E was one too low */
        big_e++;
        n = scaled_round(m, e, 11 - big_e);
    }
    if (n == top) {                   /* rounded up to the next power of ten */
        big_e++;
        n = top / 10;
    }
    char d[12];
    uint64_t v = (uint64_t)n;
    for (int i = 11; i >= 0; i--) {
        d[i] = (char)('0' + v % 10);
        v /= 10;
    }
    long nd = 12;
    while (d[nd - 1] == '0')
        nd--;
    if (x < 0)
        put(out, pos, "-", 1);
    place_digits(d, nd, big_e + 1, out, pos);
}

static int in_exact_range(double a)
{
    return a >= 0x1p-36 && a < 0x1p127;
}
#else
static void exact_field(double x, char *out, long *pos)
{
    (void)x, (void)out, (void)pos;
}

static int in_exact_range(double a)
{
    (void)a;
    return 0;
}
#endif

/* Puts x as `%.12g` in plain notation, as ofo.engine.pure.plain_field
 * ("%.12g" % x) does, followed by a comma, if that fits in cap.  Returns 0
 * when put, 1 when there is no room and -1 for inf or nan. */
static int put_double(double x, char *out, long *pos, long cap)
{
    double a = fabs(x);
    if (!isfinite(x))
        return -1;
    if (in_exact_range(a)) {
        if (cap - *pos < FIELD_MAX + 1)
            return 1;
        exact_field(x, out, pos);
    } else if (a == 0.0) {
        if (cap - *pos < 2)
            return 1;
        out[(*pos)++] = '0';
    } else {
        char field[FALLBACK_MAX];
        long len = 0;
        printed_field(x, field, &len);
        if (cap - *pos < len + 1)
            return 1;
        put(out, pos, field, len);
    }
    out[(*pos)++] = ',';
    return 0;
}

/* Puts [s, s + len) followed by `end`, if that fits in cap.  Returns 0 when
 * put and 1 when there is no room. */
static int put_text(const char *s, long len, char end, char *out, long *pos, long cap)
{
    if (cap - *pos < len + 1)
        return 1;
    put(out, pos, s, len);
    out[(*pos)++] = end;
    return 0;
}

/* Writes rows [first, rows) of a segment's samples to out as CSV lines
 * t,x1..xn,u,y1..yp,<w_text>,V,<ustar_text>, each sample `%.12g` in plain
 * notation.  t, u and v hold one value per row, x n and y p.  Stops before
 * the first row that does not fit in cap bytes and sets *done to its index
 * (to rows when all fit).  Returns the number of bytes written, or -1 when
 * a value is inf or nan. */
long ofo_format_rows(const double *t, const double *x, const double *u,
                     const double *y, const double *v, int n, int p,
                     long first, long rows,
                     const char *w_text, long w_len, const char *ustar_text, long ustar_len,
                     char *out, long cap, long *done)
{
    long pos = 0;
    for (long r = first; r < rows; r++) {
        long start = pos;
        int status = put_double(t[r], out, &pos, cap);
        for (int j = 0; j < n && status == 0; j++)
            status = put_double(x[r * n + j], out, &pos, cap);
        if (status == 0)
            status = put_double(u[r], out, &pos, cap);
        for (int i = 0; i < p && status == 0; i++)
            status = put_double(y[r * p + i], out, &pos, cap);
        if (status == 0)
            status = put_text(w_text, w_len, ',', out, &pos, cap);
        if (status == 0)
            status = put_double(v[r], out, &pos, cap);
        if (status == 0)
            status = put_text(ustar_text, ustar_len, '\n', out, &pos, cap);
        if (status < 0)
            return -1;
        if (status > 0) {
            *done = r;
            return start;
        }
    }
    *done = rows;
    return pos;
}
