#include "workloads/workload_image.hh"

#include <compare>
#include <exception>
#include <future>
#include <map>
#include <mutex>

namespace cdp
{

WorkloadImage::WorkloadImage(const std::string &workload,
                             std::uint64_t seed,
                             std::uint32_t phys_frames)
    : spec(findBenchmark(workload)), seed(seed),
      frames(/*base_pa=*/0, phys_frames, /*scatter=*/true,
             seed ^ 0xabcdef),
      table(store, frames),
      heapAlloc(store, table, frames, defaultHeapBase,
                /*align_noise=*/0.05, seed ^ 0x5eed),
      structures(buildWorkload(spec, heapAlloc, seed))
{
}

std::unique_ptr<UopSource>
WorkloadImage::makeSource() const
{
    return makeWorkloadSource(spec, heapAlloc, structures, seed);
}

namespace
{

using SharedImage = std::shared_ptr<const WorkloadImage>;

struct ImageKey
{
    std::string workload;
    std::uint64_t seed;
    std::uint32_t physFrames;

    auto operator<=>(const ImageKey &) const = default;
};

/**
 * The live images by key. An entry never keeps its image alive: it
 * holds a weak_ptr, plus, while the image is being built, the future
 * that concurrent requesters of the key wait on.
 */
class ImageRegistry
{
  public:
    /** The live image of @p key, building it if there is none. */
    SharedImage acquire(const ImageKey &key);

    /** Drop @p key's entry if its image died and no build is running. */
    void prune(const ImageKey &key);

    std::size_t size();

  private:
    struct Entry
    {
        std::weak_ptr<const WorkloadImage> image;
        std::shared_future<SharedImage> building;
    };

    std::mutex mtx;
    std::map<ImageKey, Entry> entries; // cdplint: guarded_by(mtx)
};

ImageRegistry registry;

/** Deleter of a shared image: prunes its entry, then frees it. */
struct ReleaseImage
{
    ImageKey key;

    void
    operator()(const WorkloadImage *image) const
    {
        // Freed after the prune, outside the registry lock.
        const std::unique_ptr<const WorkloadImage> dying(image);
        registry.prune(key);
    }
};

SharedImage
ImageRegistry::acquire(const ImageKey &key)
{
    std::promise<SharedImage> promise;
    std::shared_future<SharedImage> pending;
    {
        std::lock_guard<std::mutex> lk(mtx);
        Entry &e = entries[key];
        if (SharedImage live = e.image.lock())
            return live;
        if (e.building.valid())
            pending = e.building;
        else
            e.building = promise.get_future().share();
    }
    if (pending.valid())
        return pending.get();

    // This caller builds; the others wait on its promise.
    try {
        auto built = std::make_unique<const WorkloadImage>(
            key.workload, key.seed, key.physFrames);
        SharedImage image(built.release(), ReleaseImage{key});
        {
            std::lock_guard<std::mutex> lk(mtx);
            Entry &e = entries[key];
            e.image = image;
            e.building = {};
        }
        promise.set_value(image);
        return image;
    } catch (...) {
        {
            std::lock_guard<std::mutex> lk(mtx);
            entries.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

void
ImageRegistry::prune(const ImageKey &key)
{
    std::lock_guard<std::mutex> lk(mtx);
    const auto it = entries.find(key);
    if (it != entries.end() && it->second.image.expired() &&
        !it->second.building.valid())
        entries.erase(it);
}

std::size_t
ImageRegistry::size()
{
    std::lock_guard<std::mutex> lk(mtx);
    return entries.size();
}

} // namespace

std::shared_ptr<const WorkloadImage>
sharedWorkloadImage(const std::string &workload, std::uint64_t seed,
                    std::uint32_t phys_frames)
{
    return registry.acquire({workload, seed, phys_frames});
}

std::size_t
registeredWorkloadImages()
{
    return registry.size();
}

} // namespace cdp
