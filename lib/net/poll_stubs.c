/* poll(2) readiness wait for the event loops of dp_net and dp_pool.
 *
 * The OCaml stdlib's Unix module offers only select, whose fd_set
 * cannot hold a descriptor at or above FD_SETSIZE (1024). poll takes
 * an array of slots and has no such ceiling.
 *
 * Slots arrive as two parallel OCaml arrays: descriptors, and an int
 * per slot whose bit 1 asks for read and bit 2 for write. A slot with
 * neither bit is handed to poll as fd -1, which poll skips. On return
 * every slot's int keeps its interest bits and gains bit 4 when the
 * slot asked for read and is readable (data, end of stream, hang-up or
 * a pending error, as select would report it). A signal ends the wait
 * with nothing ready.
 */

#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <limits.h>
#include <poll.h>
#include <stdlib.h>

#define DP_READ 1
#define DP_WRITE 2
#define DP_READABLE 4
#define DP_LOCAL_SLOTS 64

/* dp_poll(fds, flags, len, timeout_ms): wait on the first [len] slots
   for at most [timeout_ms] milliseconds, then write each slot's
   readiness into [flags]. */
CAMLprim value dp_poll(value vfds, value vflags, value vlen, value vtimeout)
{
  CAMLparam4(vfds, vflags, vlen, vtimeout);
  long len = Long_val(vlen);
  long ms = Long_val(vtimeout);
  struct pollfd local[DP_LOCAL_SLOTS];
  struct pollfd *p = local;
  long i;
  int n, err;

  if (len > DP_LOCAL_SLOTS) {
    p = malloc((size_t)len * sizeof(struct pollfd));
    if (p == NULL) caml_raise_out_of_memory();
  }
  for (i = 0; i < len; i++) {
    long want = Long_val(Field(vflags, i)) & (DP_READ | DP_WRITE);
    p[i].fd = want ? Int_val(Field(vfds, i)) : -1;
    p[i].events = (want & DP_READ ? POLLIN : 0) | (want & DP_WRITE ? POLLOUT : 0);
    p[i].revents = 0;
  }

  /* the arrays are not touched while the runtime is released: other
     OCaml threads (tests run a server in one) keep running */
  caml_release_runtime_system();
  n = poll(p, (nfds_t)len, ms > INT_MAX ? INT_MAX : (int)ms);
  err = errno;
  caml_acquire_runtime_system();

  if (n == -1 && err != EINTR) {
    if (p != local) free(p);
    unix_error(err, "poll", Nothing);
  }
  for (i = 0; i < len; i++) {
    long want = Long_val(Field(vflags, i)) & (DP_READ | DP_WRITE);
    int ready = n > 0 && (want & DP_READ) &&
                (p[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL));
    Store_field(vflags, i, Val_long(want | (ready ? DP_READABLE : 0)));
  }
  if (p != local) free(p);
  CAMLreturn(Val_unit);
}
