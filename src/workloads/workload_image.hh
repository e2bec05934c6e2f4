/**
 * @file
 * The workload image: one benchmark's simulated memory, built once
 * and then shared read-only by every Simulator of the same
 * (workload, seed, physical frames).
 *
 * Nothing writes simulated memory after a workload is built: the
 * generators only read it, the memory system's stores and pollution
 * injector are timing-only, and the page table is filled during the
 * build. So the backing store, frame allocator, page table, heap
 * allocators and built structure shapes of a benchmark form one
 * immutable image. A sweep of machine configurations over one
 * workload builds it once; each Simulator adds only a fresh uop
 * source (makeSource), its memory system and its core (DESIGN.md
 * §11 "Shared workload image").
 */

#ifndef CDP_WORKLOADS_WORKLOAD_IMAGE_HH
#define CDP_WORKLOADS_WORKLOAD_IMAGE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "cpu/uop.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "vm/page_table.hh"
#include "workloads/heap_allocator.hh"
#include "workloads/suite.hh"

namespace cdp
{

/**
 * One benchmark's built simulated memory. Constructed once, then
 * only read: all accessors are const.
 */
class WorkloadImage
{
  public:
    /**
     * Build @p workload with @p seed over @p phys_frames physical
     * frames. Throws std::invalid_argument for an unknown workload.
     */
    WorkloadImage(const std::string &workload, std::uint64_t seed,
                  std::uint32_t phys_frames);

    WorkloadImage(const WorkloadImage &) = delete;
    WorkloadImage &operator=(const WorkloadImage &) = delete;

    /**
     * A fresh uop source walking this image from the start of its
     * stream. It references the image, which must outlive it.
     */
    std::unique_ptr<UopSource> makeSource() const;

    const BackingStore &backingStore() const { return store; }
    const PageTable &pageTable() const { return table; }
    const HeapAllocator &heap() const { return heapAlloc; }

  private:
    const BenchmarkSpec &spec;
    std::uint64_t seed;
    BackingStore store;
    FrameAllocator frames;
    PageTable table;
    HeapAllocator heapAlloc;
    BuiltWorkload structures;
};

/**
 * The image of (@p workload, @p seed, @p phys_frames) that live
 * Simulators share, built on first use. Concurrent callers with the
 * same key wait for one build; different keys build in parallel. An
 * image lives only as long as some holder of the returned pointer:
 * the last release frees it and drops its registry entry.
 */
std::shared_ptr<const WorkloadImage>
sharedWorkloadImage(const std::string &workload, std::uint64_t seed,
                    std::uint32_t phys_frames);

/** Registry entries: live images plus builds in flight (tests). */
std::size_t registeredWorkloadImages();

} // namespace cdp

#endif // CDP_WORKLOADS_WORKLOAD_IMAGE_HH
