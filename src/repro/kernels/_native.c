/* C micro-kernels for the "cnative" backend (repro.kernels.cnative_backend).
 *
 * These replace numpy multi-pass elementwise pipelines with single-pass
 * loops on the non-transcendental hot-path primitives: the adjugate
 * Newton solve, the clamp/scatter/compact update, and the EKV algebra
 * around the (numpy-SIMD) transcendentals.
 *
 * Numeric contract: every expression below replicates the reference
 * numpy implementation operation-for-operation in the same order, and
 * the build forbids FP contraction (-ffp-contract=off), so outputs are
 * bit-identical to the reference given identical inputs. The Python
 * wrapper's probe self-check enforces this before the backend is ever
 * selected; see docs/kernels.md for the equivalence policy.
 *
 * All "stride" arguments are in ELEMENTS (not bytes); stride 0 encodes
 * a broadcast scalar.
 */

#include <math.h>
#include <stdint.h>

/* ---------------------------------------------------------------- */
/* EKV device evaluation, stage 1: bias algebra up to the halved      */
/* interpolation arguments y = x/2 (the transcendentals stay in       */
/* numpy, whose SIMD exp/log1p beat scalar libm calls here).          */
/* ---------------------------------------------------------------- */
void ekv_prep(int64_t n,
              const double *vg, int64_t svg,
              const double *vd, int64_t svd,
              const double *vs, int64_t svs,
              const double *vt, int64_t svt,
              double n_slope, double phi_t, double dibl,
              double *y_f, double *y_r,
              double *nay_f, double *nay_r, double *vds_out)
{
    for (int64_t k = 0; k < n; ++k) {
        double g = vg[k * svg];
        double d = vd[k * svd];
        double s = vs[k * svs];
        double vds = d - s;
        double vt_eff = vt[k * svt] - dibl * vds;
        double vp = (g - vt_eff) / n_slope;
        double x_f = (vp - s) / phi_t;
        double x_r = (vp - d) / phi_t;
        double yf = x_f * 0.5;
        double yr = x_r * 0.5;
        y_f[k] = yf;
        y_r[k] = yr;
        /* exp() arguments -|y| for the softplus; fabs(NaN) = NaN so
         * non-finite bias propagates like numpy's -abs(). */
        nay_f[k] = -fabs(yf);
        nay_r[k] = -fabs(yr);
        vds_out[k] = vds;
    }
}

/* softplus assembly: sp = (y > 0) ? y + l : l with l = log1p(exp(-|y|)),
 * plus -sp as the ready-made expm1 argument for the derivative. NaN y
 * fails the comparison and selects l (itself NaN via the exp chain),
 * matching np.where. */
void softplus_finish(int64_t n, const double *y, const double *l,
                     double *sp, double *neg_sp)
{
    for (int64_t k = 0; k < n; ++k) {
        double s = (y[k] > 0.0) ? y[k] + l[k] : l[k];
        sp[k] = s;
        neg_sp[k] = -s;
    }
}

/* ---------------------------------------------------------------- */
/* EKV stage 3: combine softplus values sp = softplus(x/2) and        */
/* em = expm1(-sp) into current + conductances in one pass.           */
/* ---------------------------------------------------------------- */
void ekv_combine(int64_t n,
                 const double *sp_f, const double *em_f,
                 const double *sp_r, const double *em_r,
                 const double *vds,
                 const double *ispec, int64_t sispec,
                 double n_slope, double phi_t, double dibl, double lam,
                 double *ids, double *gg, double *gd, double *gs)
{
    double dxf_dvg = 1.0 / (n_slope * phi_t);
    double dxr_dvg = dxf_dvg;
    double dxf_dvd = (dibl / n_slope) / phi_t;
    double dxf_dvs = (-dibl / n_slope - 1.0) / phi_t;
    double dxr_dvd = (dibl / n_slope - 1.0) / phi_t;
    double dxr_dvs = (-dibl / n_slope) / phi_t;
    for (int64_t k = 0; k < n; ++k) {
        double spf = sp_f[k];
        double spr = sp_r[k];
        double f_f = spf * spf;
        double f_r = spr * spr;
        double fp_f = spf * -em_f[k];
        double fp_r = spr * -em_r[k];
        double clm = 1.0 + lam * vds[k];
        double diff = f_f - f_r;
        double is = ispec[k * sispec];
        ids[k] = is * diff * clm;
        gg[k] = is * clm * (fp_f * dxf_dvg - fp_r * dxr_dvg);
        gd[k] = is * (clm * (fp_f * dxf_dvd - fp_r * dxr_dvd) + lam * diff);
        gs[k] = is * (clm * (fp_f * dxf_dvs - fp_r * dxr_dvs) - lam * diff);
    }
}

/* ---------------------------------------------------------------- */
/* Adjugate (Cramer) Newton solves for (S, n, n) stacks, n <= 3.      */
/* Return -1 on success, or the index of the first exactly singular   */
/* sample (the wrapper raises LinAlgError, matching numpy).           */
/* ---------------------------------------------------------------- */
int64_t solve_stack1(int64_t n, const double *jac, const double *resid,
                     double *delta)
{
    for (int64_t k = 0; k < n; ++k) {
        double det = jac[k];
        if (det == 0.0)
            return k;
        delta[k] = -resid[k] / det;
    }
    return -1;
}

int64_t solve_stack2(int64_t n, const double *jac, const double *resid,
                     double *delta)
{
    for (int64_t k = 0; k < n; ++k) {
        const double *j = jac + 4 * k;
        double a = j[0], b = j[1], c = j[2], d = j[3];
        double det = a * d - b * c;
        if (det == 0.0)
            return k;
        double inv_det = -1.0 / det;
        double r0 = resid[2 * k], r1 = resid[2 * k + 1];
        delta[2 * k] = (d * r0 - b * r1) * inv_det;
        delta[2 * k + 1] = (a * r1 - c * r0) * inv_det;
    }
    return -1;
}

int64_t solve_stack3(int64_t n, const double *jac, const double *resid,
                     double *delta)
{
    for (int64_t k = 0; k < n; ++k) {
        const double *j = jac + 9 * k;
        double a = j[0], b = j[1], c = j[2];
        double d = j[3], e = j[4], f = j[5];
        double g = j[6], h = j[7], i = j[8];
        double ca = e * i - f * h;
        double cb = c * h - b * i;
        double cc = b * f - c * e;
        double cd = f * g - d * i;
        double ce = a * i - c * g;
        double cf = c * d - a * f;
        double cg = d * h - e * g;
        double ch = b * g - a * h;
        double ci = a * e - b * d;
        double det = a * ca + b * cd + c * cg;
        if (det == 0.0)
            return k;
        double inv_det = -1.0 / det;
        double r0 = resid[3 * k], r1 = resid[3 * k + 1], r2 = resid[3 * k + 2];
        delta[3 * k] = (ca * r0 + cb * r1 + cc * r2) * inv_det;
        delta[3 * k + 1] = (cd * r0 + ce * r1 + cf * r2) * inv_det;
        delta[3 * k + 2] = (cg * r0 + ch * r1 + ci * r2) * inv_det;
    }
    return -1;
}

/* ---------------------------------------------------------------- */
/* Clamp the Newton update to ±damp (in place, NaN-preserving like    */
/* np.clip), scatter it into the (S_full, ncols) state, and compact   */
/* the still-active rows. Returns the active-row count; *nonfinite    */
/* is set when any update entry is not finite (the solver raises      */
/* before the row mask matters, so per-row NaN handling need only     */
/* agree with numpy on finite data).                                  */
/* ---------------------------------------------------------------- */
int64_t apply_update(double *v, int64_t ncols,
                     const int64_t *rows, int64_t n_active,
                     double *delta, int64_t n,
                     double damp, double dv_tol,
                     int64_t *out_rows, int64_t *nonfinite)
{
    int64_t count = 0;
    int64_t bad = 0;
    for (int64_t r = 0; r < n_active; ++r) {
        int64_t row = rows ? rows[r] : r;
        double *vrow = v + row * ncols;
        double *drow = delta + r * n;
        int still = 0;
        for (int64_t j = 0; j < n; ++j) {
            double x = drow[j];
            /* comparison-based clip: NaN fails both tests and passes
             * through, matching np.clip */
            if (x < -damp)
                x = -damp;
            else if (x > damp)
                x = damp;
            drow[j] = x;
            vrow[j] += x;
            if (!isfinite(x))
                bad = 1;
            if (fabs(x) >= dv_tol)
                still = 1;
        }
        if (still)
            out_rows[count++] = row;
    }
    *nonfinite = bad;
    return count;
}
