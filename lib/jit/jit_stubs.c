/* dlopen/dlsym bridge to a per-campaign JIT-compiled contraction kernel.
 *
 * The shared object is self-contained C99 emitted by Jit.Emit: it exports
 *   int32_t xcvjit_abi_version(void);
 *   void    xcvjit_init(void);
 *   void    xcvjit_contract_batch(int32_t n,
 *             const double *in_lo, const double *in_hi,
 *             double *out_lo, double *out_hi,
 *             int32_t *out_flags, int32_t *out_status,
 *             int64_t *out_revise, int64_t *out_sweeps);
 *
 * Buffers are Bigarray data (outside the OCaml heap, stable under the
 * OCaml 5 GC), so the runtime lock is released for the whole batch call
 * and worker domains contract boxes in parallel; the stub roots the
 * Bigarrays for the duration of the call so none is finalised under it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <dlfcn.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>
#include <caml/signals.h>

#define XCVJIT_ABI 1

typedef void (*xcvjit_batch_fn)(int32_t n, const double *in_lo,
                                const double *in_hi, double *out_lo,
                                double *out_hi, int32_t *out_flags,
                                int32_t *out_status, int64_t *out_revise,
                                int64_t *out_sweeps);

struct xcvjit_handle {
  void *dl;
  xcvjit_batch_fn batch;
};

static void fail_msgf(const char *prefix, const char *detail)
{
  char buf[512];
  snprintf(buf, sizeof buf, "%s: %s", prefix, detail ? detail : "unknown error");
  caml_failwith(buf);
}

CAMLprim value xcvjit_stub_open(value vpath)
{
  CAMLparam1(vpath);
  const char *path = String_val(vpath);
  void *dl = dlopen(path, RTLD_NOW | RTLD_LOCAL);
  if (dl == NULL) fail_msgf("xcvjit: dlopen failed", dlerror());
  int32_t (*abi)(void) = (int32_t (*)(void))dlsym(dl, "xcvjit_abi_version");
  if (abi == NULL || abi() != XCVJIT_ABI) {
    dlclose(dl);
    caml_failwith("xcvjit: ABI version mismatch");
  }
  void (*init)(void) = (void (*)(void))dlsym(dl, "xcvjit_init");
  xcvjit_batch_fn batch =
      (xcvjit_batch_fn)dlsym(dl, "xcvjit_contract_batch");
  if (init == NULL || batch == NULL) {
    dlclose(dl);
    caml_failwith("xcvjit: missing kernel entry points");
  }
  init();
  struct xcvjit_handle *h = malloc(sizeof *h);
  if (h == NULL) {
    dlclose(dl);
    caml_failwith("xcvjit: out of memory");
  }
  h->dl = dl;
  h->batch = batch;
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

CAMLprim value xcvjit_stub_close(value vh)
{
  struct xcvjit_handle *h = (struct xcvjit_handle *)Nativeint_val(vh);
  if (h != NULL) {
    dlclose(h->dl);
    free(h);
  }
  return Val_unit;
}

CAMLprim value xcvjit_stub_batch(value vh, value vn, value vin_lo,
                                 value vin_hi, value vout_lo, value vout_hi,
                                 value vflags, value vstatus, value vrevise,
                                 value vsweeps)
{
  /* Root every Bigarray: a caller may hold no other live reference to the
     inputs once the call is made, and while this domain is blocked another
     domain's minor GC can finalise an unrooted small Bigarray and free the
     data the kernel is still reading. */
  CAMLparam5(vh, vn, vin_lo, vin_hi, vout_lo);
  CAMLxparam5(vout_hi, vflags, vstatus, vrevise, vsweeps);
  struct xcvjit_handle *h = (struct xcvjit_handle *)Nativeint_val(vh);
  int32_t n = Int_val(vn);
  const double *in_lo = (const double *)Caml_ba_data_val(vin_lo);
  const double *in_hi = (const double *)Caml_ba_data_val(vin_hi);
  double *out_lo = (double *)Caml_ba_data_val(vout_lo);
  double *out_hi = (double *)Caml_ba_data_val(vout_hi);
  int32_t *flags = (int32_t *)Caml_ba_data_val(vflags);
  int32_t *status = (int32_t *)Caml_ba_data_val(vstatus);
  int64_t *revise = (int64_t *)Caml_ba_data_val(vrevise);
  int64_t *sweeps = (int64_t *)Caml_ba_data_val(vsweeps);
  caml_enter_blocking_section();
  h->batch(n, in_lo, in_hi, out_lo, out_hi, flags, status, revise, sweeps);
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

CAMLprim value xcvjit_stub_batch_bytecode(value *argv, int argn)
{
  (void)argn;
  return xcvjit_stub_batch(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6], argv[7], argv[8], argv[9]);
}
