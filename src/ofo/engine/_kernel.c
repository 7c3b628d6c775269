/* Compiled closed-loop kernel with two entry points.
 *
 * ofo_run_segment steps one constant-disturbance segment of a loop with a
 * scalar input and mirrors ofo.engine.pure.run_segment expression by
 * expression.  Built with -ffp-contract=off and never -ffast-math, so both
 * kernels produce bit-identical trajectories; any change here must be
 * replicated there.
 *
 * ofo_plain_text rewrites the `%.12g` fields of a CSV text into plain
 * decimal notation, byte for byte as ofo.engine.pure.plain_text does.  It
 * formats no float: it only moves the digits Python already printed.
 *
 * There is no global or static state: each call touches only its arguments
 * and the scratch memory it allocates.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    int n, p, sine, sqrtplus, projected;
    const double *a, *b, *drift, *c, *s0;
    double lo, hi, cq1, cq2, mu4, alpha, beta;
    double *y, *gy;            /* scratch */
    double xi;                 /* weight of V; 0.0 records no V */
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

/* Appends record k: its time, x, u, y = C x and, when xi is nonzero,
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
    if (f->xi != 0.0) {
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
}

/* Integrates one constant-disturbance segment from (x, *u), which come back
 * as the final state.  b holds n values and s0 p values.  The record buffers
 * hold 2 + n_tot / stride records; lp, xstar, ustar and rec_v are read only
 * when xi is nonzero.  Returns the number of records written, or -1 when
 * scratch memory cannot be allocated. */
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

/* Appends count bytes of src at out + *pos, or only counts them when out is
 * NULL. */
static void put(char *out, long *pos, const char *src, long count)
{
    if (out != NULL)
        memcpy(out + *pos, src, (size_t)count);
    *pos += count;
}

static void put_zeros(char *out, long *pos, long count)
{
    if (out != NULL)
        memset(out + *pos, '0', (size_t)count);
    *pos += count;
}

/* Puts the field [f, f + len) in plain notation, as ofo.engine.pure.plain_field
 * does: an exponent form is expanded by placing its printed digits and -0
 * becomes 0.  Returns -1 for inf or nan, and for an exponent form that
 * `%.12g` does not print (more than 17 digits, or an exponent of more than
 * four digits), which would not fit the buffer and the arithmetic here. */
static int plain_field(const char *f, long len, char *out, long *pos)
{
    const char *e = memchr(f, 'e', (size_t)len), *end = f + len;
    if (e == NULL) {
        if (memchr(f, 'n', (size_t)len) != NULL)
            return -1;
        if (len == 2 && f[0] == '-' && f[1] == '0')
            put(out, pos, "0", 1);
        else
            put(out, pos, f, len);
        return 0;
    }
    char digits[17];
    long nd = 0, exponent = 0, point;
    const char *c = f;
    if (c < e && *c == '-') {
        put(out, pos, "-", 1);
        c++;
    }
    for (; c < e; c++) {
        if (*c == '.')
            continue;
        if (nd == (long)sizeof digits)
            return -1;
        digits[nd++] = *c;
    }
    int negative = e + 1 < end && e[1] == '-';
    c = e + 1 + (e + 1 < end && (e[1] == '-' || e[1] == '+'));
    if (c == end || end - c > 4)
        return -1;
    for (; c < end; c++) {
        if (*c < '0' || *c > '9')
            return -1;
        exponent = 10 * exponent + (*c - '0');
    }
    point = (negative ? -exponent : exponent) + 1;  /* digits before the point */
    if (point <= 0) {
        put(out, pos, "0.", 2);
        put_zeros(out, pos, -point);
        put(out, pos, digits, nd);
    } else if (point >= nd) {
        put(out, pos, digits, nd);
        put_zeros(out, pos, point - nd);
    } else {
        put(out, pos, digits, point);
        put(out, pos, ".", 1);
        put(out, pos, digits + point, nd - point);
    }
    return 0;
}

/* Rewrites every field of the CSV text [in, in + len), fields separated by
 * commas and line feeds, into out.  With out NULL it writes nothing and
 * returns the exact output length; otherwise out must hold that many bytes.
 * Returns the output length, or -1 when a field is inf, nan or an exponent
 * form that `%.12g` does not print.  Bytes that stay as they are, separators included, are
 * put in runs between the fields that change. */
long ofo_plain_text(const char *in, long len, char *out)
{
    const char *p = in, *end = in + len, *run = in, *f;
    long pos = 0;
    int special;
    while (p < end) {
        f = p;
        special = 0;
        for (; p < end && *p != ',' && *p != '\n'; p++)
            if (*p == 'e' || *p == 'n')
                special = 1;
        if (special || (p - f == 2 && f[0] == '-' && f[1] == '0')) {
            put(out, &pos, run, f - run);
            if (plain_field(f, p - f, out, &pos) < 0)
                return -1;
            run = p;
        }
        if (p < end)
            p++;
    }
    put(out, &pos, run, end - run);
    return pos;
}
