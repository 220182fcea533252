#include "util/memory.h"

#include <cstdlib>  // any libc header; glibc's defines __GLIBC__

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace ibseg {

void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace ibseg
