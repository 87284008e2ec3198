/* dlopen/dlsym bridge to a JIT-compiled contraction kernel.
 *
 * The shared object is the self-contained C99 that Jit.render_source
 * emits; it exports
 *   int32_t xcvjit_abi_version(void);
 *   void    xcvjit_init(void);
 *   int32_t xcvjit_contract(double *lo, double *hi, int32_t *status,
 *                           int64_t *counts);
 * where xcvjit_contract contracts one box in place and returns 1 when it
 * is infeasible.
 *
 * xcvjit_stub_contract copies the box into C stack memory before it
 * releases the runtime lock and writes every result back after taking the
 * lock again, so the kernel never sees OCaml memory: worker domains
 * contract boxes in parallel while other domains' collections move or
 * free heap blocks at will.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <dlfcn.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

#define XCVJIT_ABI 2

typedef int32_t (*xcvjit_contract_fn)(double *lo, double *hi, int32_t *status,
                                      int64_t *counts);

struct xcvjit_handle {
  void *dl;
  xcvjit_contract_fn contract;
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
  xcvjit_contract_fn contract =
      (xcvjit_contract_fn)dlsym(dl, "xcvjit_contract");
  if (init == NULL || contract == NULL) {
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
  h->contract = contract;
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

/* [vbounds]: floatarray of the box's dim lower then dim upper bounds,
   contracted in place. [vout]: int array of 2 + natoms, receives the
   revise and sweep counts, then (for a feasible box) the per-atom
   statuses. Returns true when the box is infeasible. */
CAMLprim value xcvjit_stub_contract(value vh, value vbounds, value vout)
{
  CAMLparam2(vbounds, vout);
  struct xcvjit_handle *h = (struct xcvjit_handle *)Nativeint_val(vh);
  mlsize_t n = Wosize_val(vbounds) / Double_wosize;
  mlsize_t natoms = Wosize_val(vout) - 2;
  mlsize_t i;
  double bounds[n];
  int32_t status[natoms];
  int64_t counts[2];
  int32_t infeasible;
  for (i = 0; i < n; i++) bounds[i] = Double_flat_field(vbounds, i);
  caml_enter_blocking_section();
  infeasible = h->contract(bounds, bounds + n / 2, status, counts);
  caml_leave_blocking_section();
  for (i = 0; i < n; i++) Store_double_flat_field(vbounds, i, bounds[i]);
  Store_field(vout, 0, Val_long(counts[0]));
  Store_field(vout, 1, Val_long(counts[1]));
  if (!infeasible)
    for (i = 0; i < natoms; i++) Store_field(vout, i + 2, Val_int(status[i]));
  CAMLreturn(Val_bool(infeasible));
}
