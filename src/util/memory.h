#ifndef IBSEG_UTIL_MEMORY_H_
#define IBSEG_UTIL_MEMORY_H_

namespace ibseg {

/// Hands the heap's free pages back to the operating system (glibc's
/// malloc_trim; a no-op with other allocators). glibc keeps freed memory
/// mapped — worker threads' arenas especially — so without this call the
/// resident size stays at a bulk build's peak long after the build's
/// transient memory is freed. Called where such a build ends: the
/// offline grouping pass, ShardedServing::create and restore, and the end
/// of a recluster epoch; and when a ShardedServing is destroyed.
void release_free_heap();

}  // namespace ibseg

#endif  // IBSEG_UTIL_MEMORY_H_
