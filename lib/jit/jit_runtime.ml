(* The C99 runtime embedded in every emitted kernel.

   This is a statement-for-statement transliteration of the OCaml interval
   stack ([Interval], [Transcend], [Certified], [Lambert], [Eval.pow_float])
   plus a table-driven replay of [Itape]'s four sweeps (forward, HC4
   backward, adjoint, mean-value form) and [Hc4.contract_tape]'s dirty
   agenda. Bit-identity with the interpreted tape is the contract: every
   floating-point operation appears in the same order, with the same
   software outward rounding ([nextafter], never [fesetround]), the same
   NaN/signed-zero handling ([o_min]/[o_max] replicate [Float.min]/
   [Float.max]), and the same libm entry points the OCaml runtime calls.
   The OCaml side computes its one-ulp steps and min/max with plain float
   arithmetic and comparisons instead ([Interval.succ]/[pred]/[fmin]/
   [fmax]); those are bit-identical to [nextafter] and [Float.min]/
   [Float.max] (test/test_interval.ml checks it), so this engine keeps the
   C library calls and still matches the OCaml side bit for bit.

   The emitter ({!Jit}) prefixes this text with the per-formula [#define]s
   (XCV_DIM, XCV_NPROGS, XCV_ROUNDS, XCV_DO_MVF,
   XCV_MAXREGS, XCV_MAXARITY, XCV_MAXVARS), follows it with the static
   instruction tables, and closes with {!entry} which wires the exported
   [xcvjit_*] symbols to those tables. Compile with
   [-std=c99 -O2 -ffp-contract=off -fPIC -shared ... -lm]. *)

let engine =
  {rt|
#include <math.h>
#include <stdint.h>
#include <string.h>

/* ================= floats: OCaml Float.* replicas ================= */

static inline double f_pred(double x) { return nextafter(x, -INFINITY); }
static inline double f_succ(double x) { return nextafter(x, INFINITY); }
static inline double lo_down(double x) { return isfinite(x) ? f_pred(x) : x; }
static inline double hi_up(double x) { return isfinite(x) ? f_succ(x) : x; }
static inline double down2(double x) { return lo_down(lo_down(x)); }
static inline double up2(double x) { return hi_up(hi_up(x)); }

/* OCaml Float.min / Float.max: NaN-propagating, -0.0 < +0.0 aware. */
static inline double o_min(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x))) return isnan(y) ? y : x;
  return isnan(x) ? x : y;
}
static inline double o_max(double x, double y)
{
  if (y > x || (!signbit(y) && signbit(x))) return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}

static inline int f_is_integer(double x) { return isfinite(x) && x == trunc(x); }
static inline double ulp_of(double v) { return f_succ(fabs(v)) - fabs(v); }

/* Eval.pow_float: exact binary exponentiation for small integer exponents,
   libm pow otherwise. */
static double pow_bound(double b, double x)
{
  if (f_is_integer(x) && fabs(x) <= 64.0) {
    int64_t n = (int64_t)x;
    int64_t m = n < 0 ? -n : n;
    double acc = 1.0, base = b;
    while (m != 0) {
      if (m & 1) acc = acc * base;
      base = base * base;
      m >>= 1;
    }
    return n >= 0 ? acc : 1.0 / acc;
  }
  return pow(b, x);
}

/* ================= Interval ================= */

typedef struct { double lo, hi; } itv;

static inline itv mk_itv(double lo, double hi) { itv r; r.lo = lo; r.hi = hi; return r; }
#define I_EMPTY  (mk_itv(INFINITY, -INFINITY))
#define I_TOP    (mk_itv(-INFINITY, INFINITY))
#define I_ZERO   (mk_itv(0.0, 0.0))
#define I_ONE    (mk_itv(1.0, 1.0))
#define I_NONNEG (mk_itv(0.0, INFINITY))

static inline int i_is_empty(itv i) { return !(i.lo <= i.hi); }
static inline itv i_of_bounds(double lo, double hi)
{
  if (isnan(lo) || isnan(hi) || lo > hi) return I_EMPTY;
  return mk_itv(lo, hi);
}
static inline itv i_point(double x) { return i_of_bounds(x, x); }
static inline int i_is_point(itv i) { return i.lo == i.hi; }
static inline int i_is_bounded(itv i)
{
  return !i_is_empty(i) && isfinite(i.lo) && isfinite(i.hi);
}
static inline int i_mem(double x, itv i) { return i.lo <= x && x <= i.hi; }
static inline double i_width(itv i) { return i_is_empty(i) ? 0.0 : i.hi - i.lo; }
static inline double i_mag(itv i)
{
  return i_is_empty(i) ? 0.0 : o_max(fabs(i.lo), fabs(i.hi));
}
static inline double i_mig(itv i)
{
  if (i_is_empty(i)) return 0.0;
  if (i.lo > 0.0) return i.lo;
  if (i.hi < 0.0) return -i.hi;
  return 0.0;
}
static inline int i_equal(itv a, itv b)
{
  return (i_is_empty(a) && i_is_empty(b)) || (a.lo == b.lo && a.hi == b.hi);
}
static inline int i_certainly_le(itv i, double c) { return i_is_empty(i) || i.hi <= c; }
static inline int i_certainly_lt(itv i, double c) { return i_is_empty(i) || i.hi < c; }
static inline int i_certainly_ge(itv i, double c) { return i_is_empty(i) || i.lo >= c; }
static inline int i_certainly_gt(itv i, double c) { return i_is_empty(i) || i.lo > c; }
static inline int i_is_zero_point(itv i)
{
  return !i_is_empty(i) && i.lo == 0.0 && i.hi == 0.0;
}

static inline itv i_neg(itv i)
{
  if (i_is_empty(i)) return I_EMPTY;
  return mk_itv(-i.hi, -i.lo);
}

static inline itv i_add(itv a, itv b)
{
  if (i_is_empty(a) || i_is_empty(b)) return I_EMPTY;
  return i_of_bounds(lo_down(a.lo + b.lo), hi_up(a.hi + b.hi));
}
static inline itv i_sub(itv a, itv b) { return i_add(a, i_neg(b)); }

static inline double xmul(double x, double y)
{
  if (x == 0.0 || y == 0.0) return 0.0;
  return x * y;
}
static itv i_mul(itv a, itv b)
{
  if (i_is_empty(a) || i_is_empty(b)) return I_EMPTY;
  if ((a.lo == 0.0 && a.hi == 0.0) || (b.lo == 0.0 && b.hi == 0.0))
    return I_ZERO;
  {
    double p1 = xmul(a.lo, b.lo), p2 = xmul(a.lo, b.hi);
    double p3 = xmul(a.hi, b.lo), p4 = xmul(a.hi, b.hi);
    return i_of_bounds(lo_down(o_min(o_min(p1, p2), o_min(p3, p4))),
                       hi_up(o_max(o_max(p1, p2), o_max(p3, p4))));
  }
}

/* A zero divisor endpoint is approached from the divisor's own side:
   from below when the divisor is nonpositive, whatever the zero's sign. */
static inline double xdiv(double x, double y, int nonpos)
{
  if (x == 0.0) return 0.0;
  if (y == 0.0) return (x > 0.0) != nonpos ? INFINITY : -INFINITY;
  return x / y;
}
static itv i_div(itv a, itv b)
{
  if (i_is_empty(a) || i_is_empty(b)) return I_EMPTY;
  if (b.lo == 0.0 && b.hi == 0.0) return I_EMPTY;
  if (b.lo < 0.0 && b.hi > 0.0) {
    if (a.lo == 0.0 && a.hi == 0.0) return I_ZERO;
    return I_TOP;
  }
  {
    int nonpos = b.lo < 0.0;
    double p1 = xdiv(a.lo, b.lo, nonpos), p2 = xdiv(a.lo, b.hi, nonpos);
    double p3 = xdiv(a.hi, b.lo, nonpos), p4 = xdiv(a.hi, b.hi, nonpos);
    return i_of_bounds(lo_down(o_min(o_min(p1, p2), o_min(p3, p4))),
                       hi_up(o_max(o_max(p1, p2), o_max(p3, p4))));
  }
}
static inline itv i_div_rel(itv a, itv b)
{
  if (i_mem(0.0, a) && i_mem(0.0, b)) return I_TOP;
  return i_div(a, b);
}
static inline itv i_inv(itv a) { return i_div(I_ONE, a); }

static inline itv i_meet(itv a, itv b)
{
  return i_of_bounds(o_max(a.lo, b.lo), o_min(a.hi, b.hi));
}
static inline itv i_join(itv a, itv b)
{
  if (i_is_empty(a)) return b;
  if (i_is_empty(b)) return a;
  return mk_itv(o_min(a.lo, b.lo), o_max(a.hi, b.hi));
}

static inline itv i_abs(itv i)
{
  if (i_is_empty(i)) return I_EMPTY;
  if (i.lo >= 0.0) return i;
  if (i.hi <= 0.0) return i_neg(i);
  return mk_itv(0.0, o_max(-i.lo, i.hi));
}

static itv i_pow_int_pos(itv i, int64_t n)
{
  if (n & 1)
    return i_of_bounds(lo_down(pow_bound(i.lo, (double)n)),
                       hi_up(pow_bound(i.hi, (double)n)));
  {
    itv a = i_abs(i);
    return i_of_bounds(lo_down(pow_bound(a.lo, (double)n)),
                       hi_up(pow_bound(a.hi, (double)n)));
  }
}
static itv i_pow_int(itv i, int64_t n)
{
  if (i_is_empty(i)) return I_EMPTY;
  if (n == 0) return I_ONE;
  if (n > 0) return i_pow_int_pos(i, n);
  return i_inv(i_pow_int_pos(i, -n));
}

static itv i_pow_nonneg_base(itv i, double p)
{
  i = i_meet(i, I_NONNEG);
  if (i_is_empty(i)) return I_EMPTY;
  if (p == 0.0) return I_ONE;
  if (p > 0.0)
    return i_of_bounds(lo_down(pow_bound(i.lo, p)), hi_up(pow_bound(i.hi, p)));
  {
    double hi = (i.lo == 0.0) ? INFINITY : hi_up(pow_bound(i.lo, p));
    double lo = lo_down(pow_bound(i.hi, p));
    return i_of_bounds(lo, hi);
  }
}
static itv i_pow(itv i, double p)
{
  if (i_is_empty(i)) return I_EMPTY;
  if (f_is_integer(p) && fabs(p) <= 1073741823.0)
    return i_pow_int(i, (int64_t)p);
  return i_pow_nonneg_base(i, p);
}

static itv i_pow_expr(itv base, itv expo)
{
  if (i_is_empty(base) || i_is_empty(expo)) return I_EMPTY;
  if (i_is_point(expo)) return i_pow(base, expo.lo);
  {
    itv b = i_meet(base, I_NONNEG);
    double cs[4];
    int k = 0;
    double c, lo, hi;
    int t;
    if (i_is_empty(b)) return I_EMPTY;
    c = pow_bound(b.lo, expo.lo); if (!isnan(c)) cs[k++] = c;
    c = pow_bound(b.lo, expo.hi); if (!isnan(c)) cs[k++] = c;
    c = pow_bound(b.hi, expo.lo); if (!isnan(c)) cs[k++] = c;
    c = pow_bound(b.hi, expo.hi); if (!isnan(c)) cs[k++] = c;
    if (k == 0) return I_EMPTY;
    lo = cs[0]; hi = cs[0];
    for (t = 1; t < k; t++) { lo = o_min(lo, cs[t]); hi = o_max(hi, cs[t]); }
    return i_of_bounds(lo_down(lo), hi_up(hi));
  }
}

static double i_midpoint(itv i)
{
  if (isfinite(i.lo) && isfinite(i.hi)) {
    double m = 0.5 * (i.lo + i.hi);
    if (isfinite(m)) return m;
    return (0.5 * i.lo) + (0.5 * i.hi);
  }
  if (isfinite(i.lo)) return o_max(i.lo, 1e150);
  if (isfinite(i.hi)) return o_min(i.hi, -1e150);
  return 0.0;
}

/* ================= double-double kernels (Certified) ================= */

typedef struct { double h, l; } dd;
static inline dd mk_dd(double h, double l) { dd r; r.h = h; r.l = l; return r; }

static inline void two_sum(double a, double b, double *s, double *e)
{
  double s_ = a + b;
  double b_ = s_ - a;
  *s = s_;
  *e = (a - (s_ - b_)) + (b - b_);
}
static inline void quick_two_sum(double a, double b, double *s, double *e)
{
  double s_ = a + b;
  *s = s_;
  *e = b - (s_ - a);
}
static inline void two_prod(double a, double b, double *p, double *e)
{
  double p_ = a * b;
  *p = p_;
  *e = fma(a, b, -p_);
}

static dd dd_add(dd x, dd y)
{
  double sh, se, th, te, vh, vl, c, w, rh, rl;
  two_sum(x.h, y.h, &sh, &se);
  two_sum(x.l, y.l, &th, &te);
  c = se + th;
  quick_two_sum(sh, c, &vh, &vl);
  w = te + vl;
  quick_two_sum(vh, w, &rh, &rl);
  return mk_dd(rh, rl);
}
static inline dd dd_neg(dd x) { return mk_dd(-x.h, -x.l); }
static inline dd dd_sub(dd x, dd y) { return dd_add(x, dd_neg(y)); }
static dd dd_mul(dd x, dd y)
{
  double ph, pe, rh, rl;
  two_prod(x.h, y.h, &ph, &pe);
  pe = pe + ((x.h * y.l) + (x.l * y.h));
  quick_two_sum(ph, pe, &rh, &rl);
  return mk_dd(rh, rl);
}
static dd dd_div(dd x, dd y)
{
  double th = x.h / y.h;
  dd r = dd_sub(x, dd_mul(mk_dd(th, 0.0), y));
  double tl = (r.h + r.l) / y.h;
  double qh, ql;
  quick_two_sum(th, tl, &qh, &ql);
  return mk_dd(qh, ql);
}
static inline dd dd_scale2(dd x) { return mk_dd(2.0 * x.h, 2.0 * x.l); }

static inline itv enclose_dd(dd v, double err)
{
  double e = 1.25 * err;
  return i_of_bounds(lo_down(v.h + (v.l - e)), hi_up(v.h + (v.l + e)));
}

#define LN2_HI 0x1.62e42fefa39efp-1
#define LN2_LO 0x1.abc9e3b39803fp-56
#define INV_LN2 0x1.71547652b82fep+0
#define TWO_PI_HI 0x1.921fb54442d18p+2
#define TWO_PI_LO 0x1.1a62633145c07p-52
#define TWO_PI_DEFECT 1e-31
#define INV_TWO_PI 0x1.45f306dc9c883p-3
#define EXP_REL_ERR 2e-17
#define EXP_DOM_LO (-670.0)
#define EXP_DOM_HI 709.0
#define LOG_REL_ERR 5e-20
#define LOG_ABS_ERR 1e-28
#define SQRT_HALF 0.7071067811865476
#define TRIG_REDUCE_MAX 0x1p52
#define CRIT_SLACK 2e-14

/* rt_init-computed globals (deterministic; same expressions as OCaml). */
static double rt_half_pi_hi, rt_half_pi_lo, rt_pi_lo, rt_two_pi, rt_branch_point;
static dd rt_exp_coeffs[14];
static dd rt_log_coeffs[12];
static itv rt_e_one;

static itv exp_core(double th, double tl, double terr)
{
  double k = round(th * INV_LN2);
  double p, pe, q, qe, s, se;
  dd r, acc;
  int j, ik;
  double sh, sl, err;
  two_prod(k, LN2_HI, &p, &pe);
  two_prod(k, LN2_LO, &q, &qe);
  two_sum(th, -p, &s, &se);
  r = dd_sub(dd_add(mk_dd(s, se), mk_dd(tl - pe, 0.0)), mk_dd(q, qe));
  acc = rt_exp_coeffs[0];
  for (j = 1; j <= 13; j++) acc = dd_add(dd_mul(acc, r), rt_exp_coeffs[j]);
  ik = (int)k;
  sh = ldexp(acc.h, ik);
  sl = ldexp(acc.l, ik);
  err = fabs(sh) * (EXP_REL_ERR + (1.01 * terr));
  return enclose_dd(mk_dd(sh, sl), err);
}

static itv cert_exp_point(double x)
{
  if (x < EXP_DOM_LO) {
    itv t = exp_core(EXP_DOM_LO, 0.0, 0.0);
    return i_of_bounds(0.0, t.hi);
  }
  if (x > EXP_DOM_HI) {
    itv t = exp_core(EXP_DOM_HI, 0.0, 0.0);
    return i_of_bounds(t.lo, INFINITY);
  }
  return exp_core(x, 0.0, 0.0);
}

static itv cert_exp(itv i)
{
  if (i_is_empty(i)) return I_EMPTY;
  if (i_is_point(i)) {
    itv e = cert_exp_point(i.lo);
    return i_of_bounds(o_max(0.0, e.lo), e.hi);
  }
  {
    itv a = cert_exp_point(i.lo);
    itv b = cert_exp_point(i.hi);
    return i_of_bounds(o_max(0.0, a.lo), b.hi);
  }
}

static void log_core(double x, dd *out, double *err)
{
  int e0, e, j;
  double m0 = frexp(x, &e0);
  double m, num, dh, dl, ef, p, pe, q, qe;
  dd u, s, acc, logm, v;
  if (m0 < SQRT_HALF) { m = m0 * 2.0; e = e0 - 1; }
  else { m = m0; e = e0; }
  num = m - 1.0;
  two_sum(m, 1.0, &dh, &dl);
  u = dd_div(mk_dd(num, 0.0), mk_dd(dh, dl));
  s = dd_mul(u, u);
  acc = rt_log_coeffs[0];
  for (j = 1; j <= 11; j++) acc = dd_add(dd_mul(acc, s), rt_log_coeffs[j]);
  logm = dd_scale2(dd_mul(u, acc));
  ef = (double)e;
  two_prod(ef, LN2_HI, &p, &pe);
  two_prod(ef, LN2_LO, &q, &qe);
  v = dd_add(dd_add(mk_dd(p, pe), mk_dd(q, qe)), logm);
  *out = v;
  *err = fabs(v.h) * LOG_REL_ERR + LOG_ABS_ERR;
}

static itv cert_log_point(double x)
{
  dd v;
  double err;
  log_core(x, &v, &err);
  return enclose_dd(v, err);
}

static itv cert_log(itv i)
{
  double lo, hi;
  i = i_meet(i, I_NONNEG);
  if (i_is_empty(i)) return I_EMPTY;
  lo = (i.lo == 0.0) ? -INFINITY : cert_log_point(i.lo).lo;
  hi = (i.hi == 0.0) ? -INFINITY
       : (i.hi == INFINITY) ? INFINITY : cert_log_point(i.hi).hi;
  return i_of_bounds(lo, hi);
}

static itv cert_pow_rat_point(double x, double rnum, double rden)
{
  dd y = dd_div(mk_dd(rnum, 0.0), mk_dd(rden, 0.0));
  dd lx, t;
  double lerr, terr;
  log_core(x, &lx, &lerr);
  t = dd_mul(y, lx);
  terr = fabs(y.h) * lerr + fabs(t.h) * 1e-30;
  if (t.h < EXP_DOM_LO) {
    itv e = exp_core(EXP_DOM_LO, 0.0, 0.0);
    return i_of_bounds(0.0, e.hi);
  }
  if (t.h > EXP_DOM_HI) {
    itv e = exp_core(EXP_DOM_HI, 0.0, 0.0);
    return i_of_bounds(e.lo, INFINITY);
  }
  return exp_core(t.h, t.l, terr);
}

/* ================= tape data tables ================= */

typedef struct {
  int64_t i;          /* Rat.to_int value when isint */
  double f;           /* Rat.to_float */
  double num, den;    /* exact float images of numerator/denominator */
  int32_t isint, sign;
} crat;

typedef struct {
  int32_t op;         /* 0 const, 1 var, 2 add, 3 mul, 4 pow, 5 unop, 6 select */
  int32_t a;          /* var slot | unop arg | pow base | args offset */
  int32_t b;          /* pow expo | nary arity | select branch count */
  int32_t u;          /* unop code | pow forward kind (0 gen, 1 const, 2 rat) */
  int32_t d;          /* select default reg | pow adjoint kind */
  int32_t rm1_ok;
  double clo, chi;    /* const interval | enclose_rat(rat) */
  double p;           /* const_expo */
  crat r, rinv, rm1;
} jinstr;

typedef struct {
  const jinstr *ins;
  const int32_t *args;
  const int32_t *slots;
  const int32_t *var_regs; /* (reg, slot) pairs */
  int32_t n, root, rel, has_select, nslots, nvars;
  double tlo, thi;
} jprog;

#define OP_CONST 0
#define OP_VAR 1
#define OP_ADD 2
#define OP_MUL 3
#define OP_POW 4
#define OP_UNOP 5
#define OP_SELECT 6

#define UN_EXP 0
#define UN_LOG 1
#define UN_SIN 2
#define UN_COS 3
#define UN_TANH 4
#define UN_ATAN 5
#define UN_ABS 6
#define UN_LW 7

#define G_FALSE 0
#define G_TRUE 1
#define G_UNKNOWN 2

/* ================= Transcend: certified + legacy enclosures ========== */

static int rt_narrow(itv i)
{
  return i_is_bounded(i) &&
         (i_is_point(i) || i_width(i) <= 32.0 * ulp_of(i_mag(i)));
}

static itv legacy_exp(itv i)
{
  double lo, hi;
  if (i_is_empty(i)) return I_EMPTY;
  lo = o_max(0.0, down2(exp(i.lo)));
  hi = up2(exp(i.hi));
  return i_of_bounds(lo, hi);
}

static itv legacy_log(itv i)
{
  double lo, hi;
  i = i_meet(i, I_NONNEG);
  if (i_is_empty(i)) return I_EMPTY;
  lo = (i.lo == 0.0) ? -INFINITY : down2(log(i.lo));
  hi = (i.hi == 0.0) ? -INFINITY : up2(log(i.hi));
  return i_of_bounds(lo, hi);
}

#define LEGACY_TRIG_CUTOFF 1048576.0

static itv legacy_trig(double (*f)(double), double critical_shift, itv i)
{
  double a, b, fa, fb, lo, hi;
  int c;
  if (i_is_empty(i)) return I_EMPTY;
  if (i_width(i) >= rt_two_pi || i_mag(i) > LEGACY_TRIG_CUTOFF)
    return mk_itv(-1.0, 1.0);
  a = i.lo;
  b = i.hi;
  fa = f(a);
  fb = f(b);
  lo = o_min(fa, fb);
  hi = o_max(fa, fb);
  for (c = 0; c < 2; c++) {
    double phase = c == 0 ? critical_shift : critical_shift + (rt_two_pi / 2.0);
    double value = c == 0 ? 1.0 : -1.0;
    double k0 = floor((a - phase) / rt_two_pi);
    int j, hit = 0;
    for (j = 0; j < 3 && !hit; j++) {
      double x = phase + ((k0 + (double)j) * rt_two_pi);
      if (x >= a - 1e-9 && x <= b + 1e-9) hit = 1;
    }
    if (hit) { lo = o_min(lo, value); hi = o_max(hi, value); }
  }
  return i_of_bounds(o_max(-1.0, down2(lo)), o_min(1.0, up2(hi)));
}

static itv legacy_sin(itv i) { return legacy_trig(sin, rt_two_pi / 4.0, i); }
static itv legacy_cos(itv i) { return legacy_trig(cos, 0.0, i); }

static void reduce_shifted(double k, double x, dd *out, double *err)
{
  double p, pe, q, qe, s, se;
  if (k == 0.0) {
    *out = mk_dd(x, 0.0);
    *err = 0.0;
    return;
  }
  two_prod(k, TWO_PI_HI, &p, &pe);
  two_prod(k, TWO_PI_LO, &q, &qe);
  two_sum(x, -p, &s, &se);
  *out = dd_sub(dd_add(mk_dd(s, se), mk_dd(-pe, 0.0)), mk_dd(q, qe));
  *err = fabs(k) * TWO_PI_DEFECT + 1e-30;
}

static itv cert_trig(double (*f)(double), double phase_of_max, itv i)
{
  double k, ea, eb, arg_a, arg_b, da, db, fa, fb, lo, hi, r_lo, r_hi;
  dd ra, rb;
  int c;
  if (i_is_empty(i)) return I_EMPTY;
  if (!i_is_bounded(i) || i_mag(i) > TRIG_REDUCE_MAX) return mk_itv(-1.0, 1.0);
  if (i_width(i) >= TWO_PI_HI) return mk_itv(-1.0, 1.0);
  k = round(i_midpoint(i) * INV_TWO_PI);
  reduce_shifted(k, i.lo, &ra, &ea);
  reduce_shifted(k, i.hi, &rb, &eb);
  arg_a = ra.h + ra.l;
  arg_b = rb.h + rb.l;
  da = ea + (ra.l == 0.0 ? 0.0 : ulp_of(arg_a));
  db = eb + (rb.l == 0.0 ? 0.0 : ulp_of(arg_b));
  fa = f(arg_a);
  fb = f(arg_b);
  lo = o_min(fa - da, fb - db);
  hi = o_max(fa + da, fb + db);
  r_lo = arg_a - da;
  r_hi = arg_b + db;
  for (c = 0; c < 2; c++) {
    double phase = c == 0 ? phase_of_max : phase_of_max + (TWO_PI_HI / 2.0);
    double value = c == 0 ? 1.0 : -1.0;
    double k0 = floor((r_lo - CRIT_SLACK - phase) / TWO_PI_HI);
    int j, hit = 0;
    for (j = 0; j < 4 && !hit; j++) {
      double x = phase + ((k0 + (double)j) * TWO_PI_HI);
      if (x >= r_lo - CRIT_SLACK && x <= r_hi + CRIT_SLACK) hit = 1;
    }
    if (hit) { lo = o_min(lo, value); hi = o_max(hi, value); }
  }
  return i_of_bounds(o_max(-1.0, lo_down(lo_down(lo))),
                     o_min(1.0, hi_up(hi_up(hi))));
}

static itv cert_sin(itv i) { return cert_trig(sin, TWO_PI_HI / 4.0, i); }
static itv cert_cos(itv i) { return cert_trig(cos, 0.0, i); }

/* entry points: the libm enclosure met with the certified kernel */

static itv t_exp(itv i)
{
  itv base = legacy_exp(i);
  if (i_is_empty(base)) return base;
  if (rt_narrow(i)) return i_meet(base, cert_exp(i));
  return base;
}

static itv t_log(itv i)
{
  itv base = legacy_log(i);
  if (i_is_empty(base)) return base;
  if (rt_narrow(i)) return i_meet(base, cert_log(i));
  return base;
}

static itv t_sin(itv i) { return i_meet(legacy_sin(i), cert_sin(i)); }

static itv t_cos(itv i) { return i_meet(legacy_cos(i), cert_cos(i)); }

static itv t_tanh(itv i)
{
  double lo, hi;
  if (i_is_empty(i)) return I_EMPTY;
  lo = o_max(-1.0, down2(tanh(i.lo)));
  hi = o_min(1.0, up2(tanh(i.hi)));
  return i_of_bounds(lo, hi);
}

static itv t_atan(itv i)
{
  double lo, hi;
  if (i_is_empty(i)) return I_EMPTY;
  lo = o_max(-rt_half_pi_hi, down2(atan(i.lo)));
  hi = o_min(rt_half_pi_hi, up2(atan(i.hi)));
  return i_of_bounds(lo, hi);
}

/* ---- Lambert W ---- */

static double lambert_initial_guess(double x)
{
  if (x < -0.25) {
    double p = sqrt(2.0 * ((exp(1.0) * x) + 1.0));
    return -1.0 + p - (p * p / 3.0);
  }
  if (x < 0.25) return x * (1.0 - x + (1.5 * x * x)) / (1.0 + (0.5 * x));
  if (x < 10.0) return log1p(x);
  {
    double l1 = log(x);
    double l2 = log(l1);
    return l1 - l2 + (l2 / l1);
  }
}

static double lambert_w0(double x)
{
  double w;
  int i;
  if (isnan(x)) return x;
  if (x == INFINITY) return INFINITY;
  if (x == 0.0) return 0.0;
  if (x < -exp(-1.0) - 1e-15) return NAN;
  w = lambert_initial_guess(x);
  if (w <= -1.0) w = -1.0 + 1e-12;
  for (i = 0; i < 8; i++) {
    double ew = exp(w);
    double f = (w * ew) - x;
    if (f != 0.0) {
      double w1 = w + 1.0;
      double denom = (ew * w1) - ((w + 2.0) * f / (2.0 * w1));
      if (denom != 0.0 && isfinite(denom)) w = w - f / denom;
    }
  }
  return w;
}

static double legacy_lambert_residual(double w, double x)
{
  return (w * exp(w)) - x;
}

static double legacy_certify_lo(double x)
{
  double w, cur;
  int steps;
  if (x == -INFINITY) return NAN;
  if (x == INFINITY) return INFINITY;
  w = lambert_w0(x);
  if (isnan(w)) return NAN;
  cur = lo_down(w);
  steps = 0;
  for (;;) {
    if (steps > 64) { cur = cur - (1e-9 * (1.0 + fabs(cur))); break; }
    if (legacy_lambert_residual(cur, x) <= 0.0) break;
    cur = lo_down(cur - (fabs(cur) * 1e-15));
    steps++;
  }
  return o_max(-1.0, cur);
}

static double legacy_certify_hi(double x)
{
  double w, cur;
  int steps;
  if (x == INFINITY) return INFINITY;
  w = lambert_w0(x);
  if (isnan(w)) return NAN;
  cur = hi_up(w);
  steps = 0;
  for (;;) {
    if (steps > 64) { cur = cur + (1e-9 * (1.0 + fabs(cur))); break; }
    if (legacy_lambert_residual(cur, x) >= 0.0) break;
    cur = hi_up(cur + (fabs(cur) * 1e-15));
    steps++;
  }
  return cur;
}

static itv certified_w_bounds(double lo, double hi)
{
  if (isnan(lo)) lo = -1.0;
  if (isnan(hi)) hi = INFINITY;
  return i_of_bounds(lo, hi);
}

static itv legacy_lambert_w(itv i)
{
  i = i_meet(i, mk_itv(rt_branch_point, INFINITY));
  if (i_is_empty(i)) return I_EMPTY;
  return certified_w_bounds(legacy_certify_lo(i.lo), legacy_certify_hi(i.hi));
}

static int cert_residual_le(double w, double x)
{
  itv g = i_mul(i_point(w), cert_exp_point(w));
  return g.hi <= x;
}
static int cert_residual_ge(double w, double x)
{
  itv g = i_mul(i_point(w), cert_exp_point(w));
  return g.lo >= x;
}
static double cert_stride(double w) { return 1e-16 * (1.0 + fabs(w)); }

static double cert_w_lo(double x)
{
  double g, w, step;
  int steps;
  if (x == INFINITY) return INFINITY;
  {
    double w0v = lambert_w0(x);
    g = isnan(w0v) ? -1.0 : o_max(-1.0, w0v);
  }
  if (g <= -1.0) return -1.0;
  w = g;
  step = cert_stride(g);
  steps = 0;
  for (;;) {
    if (w <= -1.0) return -1.0;
    if (cert_residual_le(w, x)) return w;
    if (steps > 60) return -1.0;
    w = o_max(-1.0, w - step);
    step = 2.0 * step;
    steps++;
  }
}

static double cert_branch_hi_guess(double x)
{
  itv t = i_add(i_mul(i_point(2.0), i_mul(i_point(x), rt_e_one)), i_point(2.0));
  t = i_meet(t, I_NONNEG);
  if (i_is_empty(t)) return -1.0;
  return -1.0 + i_pow(t, 0.5).hi;
}

static double cert_w_hi(double x)
{
  double g, w, step;
  int steps;
  if (x == INFINITY) return INFINITY;
  {
    double w0v = lambert_w0(x);
    g = isnan(w0v) ? cert_branch_hi_guess(x) : o_max(-1.0, w0v);
  }
  w = g;
  step = cert_stride(g);
  steps = 0;
  for (;;) {
    if (cert_residual_ge(w, x)) return w;
    if (steps > 60) return INFINITY;
    w = w + step;
    step = 2.0 * step;
    steps++;
  }
}

static double t_w_stride(double w)
{
  return o_max(1e-300, o_max(4.0 * ulp_of(w), fabs(w) * 4e-17));
}

static double t_certify_lo(double x)
{
  double w, cur, step;
  int steps;
  if (x == -INFINITY) return NAN;
  if (x == INFINITY) return INFINITY;
  w = lambert_w0(x);
  if (isnan(w)) return NAN;
  cur = lo_down(w);
  step = t_w_stride(cur);
  steps = 0;
  for (;;) {
    if (steps > 64) return NAN;
    if (legacy_lambert_residual(cur, x) <= 0.0) break;
    cur = lo_down(cur - step);
    step = 2.0 * step;
    steps++;
  }
  return o_max(-1.0, cur);
}

static double t_certify_hi(double x)
{
  double w, cur, step;
  int steps;
  if (x == INFINITY) return INFINITY;
  w = lambert_w0(x);
  if (isnan(w)) return NAN;
  cur = hi_up(w);
  step = t_w_stride(cur);
  steps = 0;
  for (;;) {
    if (steps > 64) return NAN;
    if (legacy_lambert_residual(cur, x) >= 0.0) break;
    cur = hi_up(cur + step);
    step = 2.0 * step;
    steps++;
  }
  return cur;
}

static itv t_lambert_w(itv i)
{
  double lo, hi;
  i = i_meet(i, mk_itv(rt_branch_point, INFINITY));
  if (i_is_empty(i)) return I_EMPTY;
  lo = t_certify_lo(i.lo);
  if (isnan(lo)) lo = cert_w_lo(i.lo);
  hi = t_certify_hi(i.hi);
  if (isnan(hi)) hi = cert_w_hi(i.hi);
  return i_meet(legacy_lambert_w(i), certified_w_bounds(lo, hi));
}

static itv t_atanh_at(double x)
{
  itv q;
  if (x <= -1.0) return i_point(-INFINITY);
  if (x >= 1.0) return i_point(INFINITY);
  q = i_div(i_add(I_ONE, i_point(x)), i_sub(I_ONE, i_point(x)));
  return i_mul(i_point(0.5), t_log(q));
}

static itv t_atanh(itv i)
{
  i = i_meet(i, mk_itv(-1.0, 1.0));
  if (i_is_empty(i)) return I_EMPTY;
  return i_of_bounds(t_atanh_at(i.lo).lo, t_atanh_at(i.hi).hi);
}

static itv t_w_inverse_at(double w)
{
  if (w == INFINITY) return i_point(INFINITY);
  return i_mul(i_point(w), t_exp(i_point(w)));
}

static itv t_w_inverse(itv i)
{
  i = i_meet(i, mk_itv(-1.0, INFINITY));
  if (i_is_empty(i)) return I_EMPTY;
  return i_of_bounds(t_w_inverse_at(i.lo).lo, t_w_inverse_at(i.hi).hi);
}

static itv t_tan_on_principal(itv i)
{
  double lo, hi;
  i = i_meet(i, mk_itv(-rt_half_pi_hi, rt_half_pi_hi));
  if (i_is_empty(i)) return I_EMPTY;
  lo = (i.lo <= -rt_half_pi_hi) ? -INFINITY : down2(tan(i.lo));
  hi = (i.hi >= rt_half_pi_hi) ? INFINITY : up2(tan(i.hi));
  return i_of_bounds(lo, hi);
}

static itv t_asin_hull(itv i)
{
  i = i_meet(i, mk_itv(-1.0, 1.0));
  if (i_is_empty(i)) return I_EMPTY;
  return i_of_bounds(down2(asin(i.lo)), up2(asin(i.hi)));
}

static itv t_acos_hull(itv i)
{
  i = i_meet(i, mk_itv(-1.0, 1.0));
  if (i_is_empty(i)) return I_EMPTY;
  return i_of_bounds(down2(acos(i.hi)), up2(acos(i.lo)));
}

static itv cert_pow_rat(itv i, const crat *cr)
{
  int pos;
  itv ia, ib;
  if (cr->isint) return i_pow_int(i, cr->i);
  i = i_meet(i, I_NONNEG);
  if (i_is_empty(i)) return I_EMPTY;
  pos = cr->sign > 0;
  ia = (i.lo == 0.0) ? (pos ? I_ZERO : mk_itv(INFINITY, INFINITY))
       : (i.lo == INFINITY) ? (pos ? mk_itv(INFINITY, INFINITY) : I_ZERO)
       : cert_pow_rat_point(i.lo, cr->num, cr->den);
  ib = (i.hi == 0.0) ? (pos ? I_ZERO : mk_itv(INFINITY, INFINITY))
       : (i.hi == INFINITY) ? (pos ? mk_itv(INFINITY, INFINITY) : I_ZERO)
       : cert_pow_rat_point(i.hi, cr->num, cr->den);
  if (pos) return i_of_bounds(o_max(0.0, ia.lo), ib.hi);
  return i_of_bounds(o_max(0.0, ib.lo), ia.hi);
}

static itv widen_exponent_rounding(itv i, itv base, double p)
{
  double lnb, dp, lo, hi;
  if (i_is_empty(base)) return base;
  {
    double migv = i_mig(i), magv = i_mag(i);
    double ln_lo = (migv > 0.0 && migv < INFINITY) ? fabs(log(migv)) : 0.0;
    double ln_hi = (magv > 0.0 && magv < INFINITY) ? fabs(log(magv)) : 0.0;
    lnb = o_max(ln_lo, ln_hi);
  }
  dp = (lnb + 1.0) * ulp_of(p);
  lo = base.lo;
  hi = base.hi;
  if (isfinite(lo)) lo = o_max(0.0, lo_down(lo - (lo * dp)));
  if (hi != INFINITY) hi = hi_up(hi + (hi * dp));
  return i_of_bounds(lo, hi);
}

static itv t_pow_rat(itv i, const crat *cr)
{
  if (cr->isint) return i_pow_int(i, cr->i);
  {
    double p = cr->f;
    itv base = widen_exponent_rounding(i, i_pow(i, p), p);
    if (rt_narrow(i)) return i_meet(base, cert_pow_rat(i, cr));
    return base;
  }
}

static itv apply_unop(int code, itv v)
{
  switch (code) {
  case UN_EXP: return t_exp(v);
  case UN_LOG: return t_log(v);
  case UN_SIN: return t_sin(v);
  case UN_COS: return t_cos(v);
  case UN_TANH: return t_tanh(v);
  case UN_ATAN: return t_atan(v);
  case UN_ABS: return i_abs(v);
  default: return t_lambert_w(v);
  }
}

/* ================= guard / atom status ================= */

static int guard_status(int rel, itv g)
{
  if (i_is_empty(g)) return G_FALSE;
  if (rel == 0) { /* Le */
    if (i_certainly_le(g, 0.0)) return G_TRUE;
    if (i_certainly_gt(g, 0.0)) return G_FALSE;
    return G_UNKNOWN;
  }
  /* Lt */
  if (i_certainly_lt(g, 0.0)) return G_TRUE;
  if (i_certainly_ge(g, 0.0)) return G_FALSE;
  return G_UNKNOWN;
}

/* Form.status_of_interval: 0 Holds, 1 Fails, 2 Unknown. Relations:
   0 Le0, 1 Lt0, 2 Ge0, 3 Gt0, 4 Eq0. */
static int status_of(itv i, int rel)
{
  if (i_is_empty(i)) return 1;
  switch (rel) {
  case 0:
    if (i_certainly_le(i, 0.0)) return 0;
    if (i_certainly_gt(i, 0.0)) return 1;
    return 2;
  case 1:
    if (i_certainly_lt(i, 0.0)) return 0;
    if (i_certainly_ge(i, 0.0)) return 1;
    return 2;
  case 2:
    if (i_certainly_ge(i, 0.0)) return 0;
    if (i_certainly_lt(i, 0.0)) return 1;
    return 2;
  case 3:
    if (i_certainly_gt(i, 0.0)) return 0;
    if (i_certainly_le(i, 0.0)) return 1;
    return 2;
  default:
    if (i_is_point(i) && i.lo == 0.0) return 0;
    if (!i_mem(0.0, i)) return 1;
    return 2;
  }
}

/* ================= tape engine ================= */

static _Thread_local itv sc_fwd[XCV_MAXREGS];
static _Thread_local itv sc_mfwd[XCV_MAXREGS];
static _Thread_local itv sc_req[XCV_MAXREGS];
static _Thread_local itv sc_adj[XCV_MAXREGS];
static _Thread_local unsigned char sc_vis[XCV_MAXREGS];
static _Thread_local itv sc_nary[XCV_MAXARITY + 2];

static void forward_pass(const jprog *pg, const double *blo, const double *bhi,
                         itv *fwd)
{
  int i, j;
  for (i = 0; i < pg->n; i++) {
    const jinstr *in = &pg->ins[i];
    switch (in->op) {
    case OP_CONST:
      fwd[i] = mk_itv(in->clo, in->chi);
      break;
    case OP_VAR:
      fwd[i] = mk_itv(blo[in->a], bhi[in->a]);
      break;
    case OP_ADD: {
      itv acc = I_ZERO;
      for (j = 0; j < in->b; j++) acc = i_add(acc, fwd[pg->args[in->a + j]]);
      fwd[i] = acc;
      break;
    }
    case OP_MUL: {
      itv acc = I_ONE;
      for (j = 0; j < in->b; j++) acc = i_mul(acc, fwd[pg->args[in->a + j]]);
      fwd[i] = acc;
      break;
    }
    case OP_POW:
      if (in->u == 2) fwd[i] = t_pow_rat(fwd[in->a], &in->r);
      else fwd[i] = i_pow_expr(fwd[in->a], fwd[in->b]);
      break;
    case OP_UNOP:
      fwd[i] = apply_unop(in->u, fwd[in->a]);
      break;
    default: { /* OP_SELECT */
      itv acc = I_EMPTY;
      int matched = 0;
      for (j = 0; j < in->b && !matched; j++) {
        int cnd = pg->args[in->a + 3 * j];
        int grel = pg->args[in->a + 3 * j + 1];
        int body = pg->args[in->a + 3 * j + 2];
        int g = guard_status(grel, fwd[cnd]);
        if (g == G_TRUE) { acc = i_join(acc, fwd[body]); matched = 1; }
        else if (g == G_UNKNOWN) acc = i_join(acc, fwd[body]);
      }
      if (!matched) acc = i_join(acc, fwd[in->d]);
      fwd[i] = acc;
      break;
    }
    }
  }
}

static void mark_visited(const jprog *pg, const itv *fwd, unsigned char *vis,
                         int i)
{
  const jinstr *in;
  int j;
  if (vis[i]) return;
  vis[i] = 1;
  in = &pg->ins[i];
  switch (in->op) {
  case OP_CONST:
  case OP_VAR:
    return;
  case OP_ADD:
  case OP_MUL:
    for (j = 0; j < in->b; j++) mark_visited(pg, fwd, vis, pg->args[in->a + j]);
    return;
  case OP_POW:
    mark_visited(pg, fwd, vis, in->b);
    mark_visited(pg, fwd, vis, in->a);
    return;
  case OP_UNOP:
    mark_visited(pg, fwd, vis, in->a);
    return;
  default: /* OP_SELECT */
    for (j = 0; j < in->b; j++) {
      int cnd = pg->args[in->a + 3 * j];
      int grel = pg->args[in->a + 3 * j + 1];
      int body = pg->args[in->a + 3 * j + 2];
      int g;
      mark_visited(pg, fwd, vis, cnd);
      g = guard_status(grel, fwd[cnd]);
      if (g == G_TRUE) { mark_visited(pg, fwd, vis, body); return; }
      mark_visited(pg, fwd, vis, body);
    }
    mark_visited(pg, fwd, vis, in->d);
    return;
  }
}

static void backward_pow_int(itv r, int64_t n, itv *out, int *k)
{
  double p;
  itv pos, neg_src;
  if (n == 0) { out[0] = I_TOP; *k = 1; return; }
  if (n < 0) { backward_pow_int(i_inv(r), -n, out, k); return; }
  p = 1.0 / (double)n;
  pos = i_pow(i_meet(r, I_NONNEG), p);
  neg_src = (n & 1) ? i_meet(i_neg(r), I_NONNEG) : i_meet(r, I_NONNEG);
  out[0] = pos;
  out[1] = i_neg(i_pow(neg_src, p));
  *k = 2;
}

static void backward_pow_const(itv r, double p, itv *out, int *k)
{
  if (f_is_integer(p) && fabs(p) <= 1073741823.0) {
    backward_pow_int(r, (int64_t)p, out, k);
    return;
  }
  if (p == 0.0) { out[0] = I_TOP; *k = 1; return; }
  out[0] = i_pow(i_meet(r, I_NONNEG), 1.0 / p);
  *k = 1;
}

static void backward_pow_rat(itv r, const jinstr *in, itv *out, int *k)
{
  if (in->r.isint) {
    backward_pow_int(r, in->r.i, out, k);
    return;
  }
  out[0] = t_pow_rat(i_meet(r, I_NONNEG), &in->rinv);
  *k = 1;
}

static void backward_abs(itv r, itv *out, int *k)
{
  itv rp = i_meet(r, I_NONNEG);
  if (i_is_empty(rp)) { out[0] = I_EMPTY; *k = 1; return; }
  out[0] = rp;
  out[1] = i_neg(rp);
  *k = 2;
}

static void tighten_branches(itv *req, int c, const itv *bs, int k)
{
  itv cur = req[c];
  itv acc = I_EMPTY;
  int t;
  for (t = 0; t < k; t++) acc = i_join(acc, i_meet(cur, bs[t]));
  req[c] = acc;
}

static int prog_propagate(const jprog *pg, const itv *fwd, itv *req,
                          const unsigned char *vis)
{
  int i, j;
  for (i = pg->n - 1; i >= 0; i--) {
    itv r;
    const jinstr *in;
    if (pg->has_select && !vis[i]) continue;
    r = req[i];
    if (i_is_empty(r)) return 1;
    in = &pg->ins[i];
    switch (in->op) {
    case OP_CONST:
    case OP_VAR:
      break;
    case OP_ADD: {
      int m = in->b;
      const int32_t *regs = pg->args + in->a;
      itv pre = I_ZERO;
      sc_nary[m] = I_ZERO;
      for (j = m - 1; j >= 0; j--)
        sc_nary[j] = i_add(fwd[regs[j]], sc_nary[j + 1]);
      for (j = 0; j < m; j++) {
        itv rest = i_add(pre, sc_nary[j + 1]);
        req[regs[j]] = i_meet(req[regs[j]], i_sub(r, rest));
        if (j < m - 1) pre = i_add(pre, fwd[regs[j]]);
      }
      break;
    }
    case OP_MUL: {
      int m = in->b;
      const int32_t *regs = pg->args + in->a;
      itv pre = I_ONE;
      sc_nary[m] = I_ONE;
      for (j = m - 1; j >= 0; j--)
        sc_nary[j] = i_mul(fwd[regs[j]], sc_nary[j + 1]);
      for (j = 0; j < m; j++) {
        itv rest = i_mul(pre, sc_nary[j + 1]);
        if (!i_is_empty(rest))
          req[regs[j]] = i_meet(req[regs[j]], i_div_rel(r, rest));
        if (j < m - 1) pre = i_mul(pre, fwd[regs[j]]);
      }
      break;
    }
    case OP_POW: {
      itv bs[2];
      int k;
      if (in->u == 2) {
        backward_pow_rat(r, in, bs, &k);
        tighten_branches(req, in->a, bs, k);
      } else if (in->u == 1) {
        backward_pow_const(r, in->p, bs, &k);
        tighten_branches(req, in->a, bs, k);
      } else {
        itv fb = fwd[in->a];
        if (i_certainly_gt(fb, 0.0)) {
          itv logb = t_log(fb);
          itv logr = t_log(i_meet(r, I_NONNEG));
          if (!i_is_empty(logr) && !i_mem(0.0, logb))
            req[in->b] = i_meet(req[in->b], i_div(logr, logb));
        }
      }
      break;
    }
    case OP_UNOP:
      switch (in->u) {
      case UN_EXP:
        req[in->a] = i_meet(req[in->a], t_log(r));
        break;
      case UN_LOG:
        req[in->a] = i_meet(req[in->a], t_exp(r));
        break;
      case UN_TANH:
        req[in->a] = i_meet(req[in->a], t_atanh(r));
        break;
      case UN_ATAN:
        req[in->a] = i_meet(req[in->a], t_tan_on_principal(r));
        break;
      case UN_ABS: {
        itv bs[2];
        int k;
        backward_abs(r, bs, &k);
        tighten_branches(req, in->a, bs, k);
        break;
      }
      case UN_LW:
        req[in->a] = i_meet(req[in->a], t_w_inverse(r));
        break;
      case UN_SIN: {
        itv fa = fwd[in->a];
        if (i_is_bounded(fa) && fa.lo >= -rt_half_pi_lo && fa.hi <= rt_half_pi_lo)
          req[in->a] = i_meet(req[in->a], t_asin_hull(r));
        break;
      }
      default: { /* UN_COS */
        itv fa = fwd[in->a];
        if (i_is_bounded(fa) && fa.lo >= 0.0 && fa.hi <= rt_pi_lo)
          req[in->a] = i_meet(req[in->a], t_acos_hull(r));
        break;
      }
      }
      break;
    default: { /* OP_SELECT */
      int handled = 0;
      for (j = 0; j < in->b && !handled; j++) {
        int cnd = pg->args[in->a + 3 * j];
        int grel = pg->args[in->a + 3 * j + 1];
        int body = pg->args[in->a + 3 * j + 2];
        int g = guard_status(grel, fwd[cnd]);
        if (g == G_TRUE) {
          req[body] = i_meet(req[body], r);
          handled = 1;
        } else if (g == G_UNKNOWN) {
          handled = 1; /* tighten nothing */
        }
      }
      if (!handled) req[in->d] = i_meet(req[in->d], r);
      break;
    }
    }
  }
  return 0;
}

/* One Itape.revise: contract box (blo/bhi) into (olo/ohi), which the caller
   pre-filled with the input bounds. Returns 1 on infeasibility. */
static int prog_revise(const jprog *pg, const double *blo, const double *bhi,
                       double *olo, double *ohi)
{
  itv root_req;
  int i, j, failed;
  forward_pass(pg, blo, bhi, sc_fwd);
  root_req = i_meet(sc_fwd[pg->root], mk_itv(pg->tlo, pg->thi));
  if (i_is_empty(root_req)) return 1;
  if (pg->has_select) {
    memset(sc_vis, 0, (size_t)pg->n);
    mark_visited(pg, sc_fwd, sc_vis, pg->root);
  }
  for (i = 0; i < pg->n; i++) sc_req[i] = sc_fwd[i];
  sc_req[pg->root] = root_req;
  if (prog_propagate(pg, sc_fwd, sc_req, sc_vis)) return 1;
  failed = 0;
  for (j = 0; j < pg->nvars; j++) {
    int reg = pg->var_regs[2 * j];
    int slot = pg->var_regs[2 * j + 1];
    itv r;
    if (pg->has_select && !sc_vis[reg]) continue;
    r = i_meet(sc_req[reg], mk_itv(blo[slot], bhi[slot]));
    if (i_is_empty(r)) failed = 1;
    else { olo[slot] = r.lo; ohi[slot] = r.hi; }
  }
  return failed;
}

static int selects_undecided(const jprog *pg, const itv *fwd)
{
  int i, j;
  for (i = 0; i < pg->n; i++) {
    const jinstr *in = &pg->ins[i];
    if (in->op != OP_SELECT) continue;
    for (j = 0; j < in->b; j++) {
      int g = guard_status(pg->args[in->a + 3 * j + 1],
                           fwd[pg->args[in->a + 3 * j]]);
      if (g == G_TRUE) break;
      if (g == G_UNKNOWN) return 1;
    }
  }
  return 0;
}

static itv d_unop(int code, itv fa, itv fi)
{
  switch (code) {
  case UN_EXP: return fi;
  case UN_LOG: return i_inv(fa);
  case UN_SIN: return t_cos(fa);
  case UN_COS: return i_neg(t_sin(fa));
  case UN_TANH: return i_sub(I_ONE, i_pow_int(fi, 2));
  case UN_ATAN: return i_inv(i_add(I_ONE, i_pow_int(fa, 2)));
  case UN_ABS:
    if (i_certainly_ge(fa, 0.0)) return I_ONE;
    if (i_certainly_lt(fa, 0.0)) return i_point(-1.0);
    return mk_itv(-1.0, 1.0);
  default: /* UN_LW */
    return i_inv(i_mul(i_add(I_ONE, fi), t_exp(fi)));
  }
}

/* Itape.adjoint_pass. Returns 1 when every select guard en route was
   decided (gradients exact), 0 otherwise. */
static int prog_adjoint(const jprog *pg, const itv *fwd, itv *adj)
{
  int decided = 1;
  int i, j;
  for (i = 0; i < pg->n; i++) adj[i] = I_ZERO;
  adj[pg->root] = I_ONE;
  for (i = pg->n - 1; i >= 0; i--) {
    itv a = adj[i];
    const jinstr *in;
    if (i_is_zero_point(a)) continue;
    in = &pg->ins[i];
    switch (in->op) {
    case OP_CONST:
    case OP_VAR:
      break;
    case OP_ADD: {
      const int32_t *regs = pg->args + in->a;
      for (j = 0; j < in->b; j++) adj[regs[j]] = i_add(adj[regs[j]], a);
      break;
    }
    case OP_MUL: {
      int m = in->b;
      const int32_t *regs = pg->args + in->a;
      itv pre = I_ONE;
      sc_nary[m] = I_ONE;
      for (j = m - 1; j >= 0; j--)
        sc_nary[j] = i_mul(fwd[regs[j]], sc_nary[j + 1]);
      for (j = 0; j < m; j++) {
        itv others = i_mul(pre, sc_nary[j + 1]);
        adj[regs[j]] = i_add(adj[regs[j]], i_mul(a, others));
        if (j < m - 1) pre = i_mul(pre, fwd[regs[j]]);
      }
      break;
    }
    case OP_POW:
      if (in->d == 2) {
        itv bq = t_pow_rat(fwd[in->a], &in->rm1);
        adj[in->a] = i_add(adj[in->a],
                           i_mul(a, i_mul(mk_itv(in->clo, in->chi), bq)));
      } else if (in->d == 1) {
        if (in->p != 0.0) {
          double q = in->p - 1.0;
          itv bq = (f_is_integer(q) && fabs(q) <= 1073741823.0)
                       ? i_pow_int(fwd[in->a], (int64_t)q)
                       : i_pow(fwd[in->a], q);
          adj[in->a] = i_add(adj[in->a], i_mul(a, i_mul(i_point(in->p), bq)));
        }
      } else {
        itv fb = fwd[in->a], fx = fwd[in->b], fi = fwd[i];
        adj[in->a] =
            i_add(adj[in->a], i_mul(a, i_mul(fi, i_mul(fx, i_inv(fb)))));
        adj[in->b] = i_add(adj[in->b], i_mul(a, i_mul(fi, t_log(fb))));
      }
      break;
    case OP_UNOP:
      adj[in->a] = i_add(adj[in->a], i_mul(a, d_unop(in->u, fwd[in->a], fwd[i])));
      break;
    default: { /* OP_SELECT */
      itv w = mk_itv(0.0, 1.0);
      int certain = 1, stopped = 0;
      for (j = 0; j < in->b && !stopped; j++) {
        int cnd = pg->args[in->a + 3 * j];
        int grel = pg->args[in->a + 3 * j + 1];
        int body = pg->args[in->a + 3 * j + 2];
        int g = guard_status(grel, fwd[cnd]);
        if (g == G_TRUE) {
          adj[body] = i_add(adj[body], certain ? a : i_mul(a, w));
          stopped = 1;
        } else if (g == G_UNKNOWN) {
          decided = 0;
          adj[body] = i_add(adj[body], i_mul(a, w));
          certain = 0;
        }
      }
      if (!stopped)
        adj[in->d] = i_add(adj[in->d], certain ? a : i_mul(a, w));
      break;
    }
    }
  }
  return decided;
}

/* Itape.contract_mvf: mean-value-form contraction, box updated in place.
   Returns 1 on infeasibility, 0 otherwise (Contracted). */
static int prog_mvf(const jprog *pg, double *lo, double *hi)
{
  itv g[XCV_MAXVARS], dx[XCV_MAXVARS], terms[XCV_MAXVARS];
  itv pre[XCV_MAXVARS + 1], suf[XCV_MAXVARS + 1];
  double mids[XCV_MAXVARS];
  double mlo[XCV_DIM], mhi[XCV_DIM];
  itv fm, target;
  int k = pg->nvars;
  int j, d, degenerate, infeasible;
  forward_pass(pg, lo, hi, sc_fwd);
  if (pg->has_select && selects_undecided(pg, sc_fwd)) return 0;
  if (!prog_adjoint(pg, sc_fwd, sc_adj)) return 0;
  degenerate = 0;
  for (j = 0; j < k; j++) {
    int reg = pg->var_regs[2 * j];
    int slot = pg->var_regs[2 * j + 1];
    itv gi = sc_adj[reg];
    itv xi;
    double mi;
    if (i_is_empty(gi)) { degenerate = 1; continue; }
    xi = mk_itv(lo[slot], hi[slot]);
    mi = i_midpoint(xi);
    g[j] = gi;
    mids[j] = mi;
    dx[j] = i_of_bounds(lo_down(xi.lo - mi), hi_up(xi.hi - mi));
  }
  if (degenerate) return 0;
  for (d = 0; d < XCV_DIM; d++) {
    double m = i_midpoint(mk_itv(lo[d], hi[d]));
    mlo[d] = m;
    mhi[d] = m;
  }
  forward_pass(pg, mlo, mhi, sc_mfwd);
  fm = sc_mfwd[pg->root];
  if (i_is_empty(fm)) return 0;
  for (j = 0; j < k; j++) terms[j] = i_mul(g[j], dx[j]);
  pre[0] = fm;
  for (j = 0; j < k; j++) pre[j + 1] = i_add(pre[j], terms[j]);
  suf[k] = I_ZERO;
  for (j = k - 1; j >= 0; j--) suf[j] = i_add(terms[j], suf[j + 1]);
  target = mk_itv(pg->tlo, pg->thi);
  if (i_is_empty(i_meet(pre[k], target))) return 1;
  infeasible = 0;
  for (j = 0; j < k && !infeasible; j++) {
    int slot = pg->var_regs[2 * j + 1];
    itv others = i_add(pre[j], suf[j + 1]);
    itv rhs = i_div_rel(i_sub(target, others), g[j]);
    itv shifted = i_add(rhs, i_point(mids[j]));
    itv xi = mk_itv(lo[slot], hi[slot]);
    itv narrowed = i_meet(xi, shifted);
    if (i_is_empty(narrowed)) infeasible = 1;
    else if (!i_equal(narrowed, xi)) {
      lo[slot] = narrowed.lo;
      hi[slot] = narrowed.hi;
    }
  }
  return infeasible;
}

/* Hc4.improvement. */
static double improvement(const double *blo, const double *bhi,
                          const double *alo, const double *ahi)
{
  double best = 0.0;
  int i;
  for (i = 0; i < XCV_DIM; i++) {
    double wb = i_width(mk_itv(blo[i], bhi[i]));
    double wa = i_width(mk_itv(alo[i], ahi[i]));
    if (wb > 0.0 && isfinite(wb)) best = o_max(best, (wb - wa) / wb);
  }
  return best;
}

/* Hc4.contract_tape: dirty-agenda sweeps, box contracted in place.
   Returns 1 on infeasibility. */
static int hc4_contract(const jprog *progs, int nprogs,
                        const int32_t *const *inc, const int32_t *inc_len,
                        double *lo, double *hi, int64_t *revise_calls,
                        int64_t *sweeps)
{
  unsigned char dirty[XCV_NPROGS];
  double slo[XCV_DIM], shi[XCV_DIM];
  double tlo[XCV_DIM], thi[XCV_DIM];
  int j, k, s, t;
  for (j = 0; j < nprogs; j++) dirty[j] = 1;
  for (k = 0; k < XCV_ROUNDS; k++) {
    (*sweeps)++;
    memcpy(slo, lo, sizeof slo);
    memcpy(shi, hi, sizeof shi);
    for (j = 0; j < nprogs; j++) {
      if (!dirty[j]) continue;
      (*revise_calls)++;
      memcpy(tlo, lo, sizeof tlo);
      memcpy(thi, hi, sizeof thi);
      if (prog_revise(&progs[j], lo, hi, tlo, thi)) return 1;
      dirty[j] = 0;
      for (s = 0; s < progs[j].nslots; s++) {
        int slot = progs[j].slots[s];
        if (!i_equal(mk_itv(lo[slot], hi[slot]), mk_itv(tlo[slot], thi[slot]))) {
          for (t = 0; t < inc_len[slot]; t++) dirty[inc[slot][t]] = 1;
        }
      }
      memcpy(lo, tlo, sizeof tlo);
      memcpy(hi, thi, sizeof thi);
    }
    if (improvement(slo, shi, lo, hi) < 0.01) break;
  }
  return 0;
}

static void rt_init(void)
{
  int j;
  double facts[14];
  rt_half_pi_hi = up2(2.0 * atan(1.0));
  rt_half_pi_lo = down2(2.0 * atan(1.0));
  rt_pi_lo = down2(4.0 * atan(1.0));
  rt_two_pi = 8.0 * atan(1.0);
  rt_branch_point = -exp(-1.0);
  facts[0] = 1.0;
  for (j = 1; j <= 13; j++) facts[j] = facts[j - 1] * (double)j;
  for (j = 0; j < 14; j++)
    rt_exp_coeffs[j] = dd_div(mk_dd(1.0, 0.0), mk_dd(facts[13 - j], 0.0));
  for (j = 0; j < 12; j++)
    rt_log_coeffs[j] =
        dd_div(mk_dd(1.0, 0.0), mk_dd((double)(2 * (11 - j) + 1), 0.0));
  rt_e_one = cert_exp(I_ONE);
}
|rt}

(* Closing section, emitted after the static tables ([xcv_progs],
   [xcv_incidence], [xcv_inc_len]): the exported entry points.
   [xcvjit_contract] contracts one box in place (lo/hi: XCV_DIM bounds
   each), writes the revise/sweep counts to counts[0]/counts[1] and, when
   the box survives, one status per atom (0 holds, 1 fails, 2 unknown);
   it returns 1 when the box is infeasible. *)
let entry =
  {rt|
int32_t xcvjit_abi_version(void) { return 2; }
void xcvjit_init(void) { rt_init(); }

int32_t xcvjit_contract(double *lo, double *hi, int32_t *status,
                        int64_t *counts)
{
  int j, st;
  counts[0] = 0;
  counts[1] = 0;
  st = hc4_contract(xcv_progs, XCV_NPROGS, xcv_incidence, xcv_inc_len, lo,
                    hi, &counts[0], &counts[1]);
#if XCV_DO_MVF
  for (j = 0; j < XCV_NPROGS && st == 0; j++)
    st = prog_mvf(&xcv_progs[j], lo, hi);
#endif
  if (st) return 1;
  for (j = 0; j < XCV_NPROGS; j++) {
    forward_pass(&xcv_progs[j], lo, hi, sc_fwd);
    status[j] = status_of(sc_fwd[xcv_progs[j].root], xcv_progs[j].rel);
  }
  return 0;
}
|rt}
