#include "runner/sim_runner.hh"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>

#ifdef _WIN32
#else
#include <unistd.h>
#endif

namespace cdp::runner
{

namespace
{

bool
stderrIsTty()
{
#ifdef _WIN32
    return false;
#else
    return isatty(fileno(stderr)) != 0;
#endif
}

} // namespace

SimRunner::SimRunner(unsigned jobs)
    : pool(jobs), progressTty(stderrIsTty())
{
}

SimRunner::Timer::Timer(SimRunner &r)
    : runner(r), start(std::chrono::steady_clock::now())
{
}

SimRunner::Timer::~Timer()
{
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    runner.wallMicros += static_cast<std::uint64_t>(us);
}

void
SimRunner::beginBatch(std::size_t total)
{
    batchDone = 0;
    batchTotal = total;
}

void
SimRunner::noteDone(const std::string &tag)
{
    ++simCount;
    const std::uint64_t done = ++batchDone;
    // Progress is stderr-only and scheduling-dependent; stdout and
    // report bodies must stay byte-identical across -j values.
    if (progressTty) {
        std::fprintf(stderr, "\r[%llu/%zu] %-40.40s%s",
                     static_cast<unsigned long long>(done), batchTotal,
                     tag.c_str(), done == batchTotal ? "\n" : "");
        std::fflush(stderr);
    }
}

std::vector<RunResult>
SimRunner::run(const std::vector<SimJob> &jobs)
{
    const Timer t(*this);
    beginBatch(jobs.size());
    return orderedMap(pool, jobs.size(), [&](std::size_t i) {
        const SimJob &job = jobs[i];
        Simulator sim(job.cfg);
        RunResult r = job.mode == SimJob::Mode::Whole
                          ? sim.runChunk(job.cfg.warmupUops +
                                         job.cfg.measureUops)
                          : sim.run();
        noteDone(job.tag);
        return r;
    });
}

HarnessStats
SimRunner::stats() const
{
    HarnessStats s;
    s.jobs = pool.workerCount();
    s.sims = simCount.load();
    s.wallSeconds =
        static_cast<double>(wallMicros.load()) / 1e6;
    return s;
}

unsigned
parseJobsFlag(int &argc, char **argv)
{
    unsigned jobs = 0;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg.rfind("--jobs=", 0) == 0)
            value = arg.substr(7);
        else if (arg.rfind("-j", 0) == 0 && arg.size() > 2)
            value = arg.substr(2);
        else if (arg == "-j" || arg == "--jobs") {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg +
                                            " requires a count");
            value = argv[++i];
        } else {
            argv[w++] = argv[i];
            continue;
        }
        // A positive decimal that fits an unsigned: the whole string.
        unsigned v = 0;
        const char *end = value.data() + value.size();
        const auto [ptr, ec] = std::from_chars(value.data(), end, v);
        if (ec != std::errc() || ptr != end || v == 0)
            throw std::invalid_argument("bad job count: " + value);
        jobs = v;
    }
    argc = w;
    return jobs;
}

} // namespace cdp::runner
