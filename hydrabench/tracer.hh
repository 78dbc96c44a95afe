/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is (name, start, end, parent, item id), recorded by a Scope
 * guard around one call into a layer's public API from the benchmark's
 * own code.  Spans stay in memory until the run ends; selfMs() then
 * gives each span name's self time (its duration minus the part its
 * child spans cover) and writeChrome() stores the whole run as Chrome
 * trace-event JSON, which chrome://tracing and ui.perfetto.dev load.
 *
 * A disabled Tracer records nothing: Scope then costs one branch, so
 * the untraced runs that give the end-to-end numbers pay nothing.
 */

#ifndef HYDRABENCH_TRACER_HH
#define HYDRABENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hydrabench {

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        const char* name = "";
        int64_t startNs = 0;
        int64_t endNs = 0;
        /** Index of the enclosing span, -1 for a root. */
        int32_t parent = -1;
        /** Workload item the span belongs to (bootstrap, inference,
         *  serve run); spans of one item share it. */
        uint64_t item = 0;
    };

    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool on() const { return on_; }

    /** Records one span over its own lifetime (no-op when disabled).
     *  `name` must outlive the Tracer (string literals do). */
    class Scope
    {
      public:
        Scope(Tracer& t, const char* name, uint64_t item)
            : t_(t.on_ ? &t : nullptr)
        {
            if (!t_)
                return;
            idx_ = static_cast<int32_t>(t_->spans_.size());
            Span s;
            s.name = name;
            s.parent = t_->stack_.empty() ? -1 : t_->stack_.back();
            s.item = item;
            s.startNs = t_->nowNs();
            t_->spans_.push_back(s);
            t_->stack_.push_back(idx_);
        }

        ~Scope()
        {
            if (!t_)
                return;
            t_->spans_[static_cast<size_t>(idx_)].endNs = t_->nowNs();
            t_->stack_.pop_back();
        }

        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer* t_;
        int32_t idx_ = -1;
    };

    /** Self time in ms per span name, summed over all its spans. */
    std::map<std::string, double>
    selfMs() const
    {
        std::vector<double> self = selfMsPerSpan();
        std::map<std::string, double> out;
        for (size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        return out;
    }

    /** Self time in ms of the spans named `name`, summed per item. */
    std::map<uint64_t, double>
    selfMsByItem(const std::string& name) const
    {
        std::vector<double> self = selfMsPerSpan();
        std::map<uint64_t, double> out;
        for (size_t i = 0; i < spans_.size(); ++i)
            if (name == spans_[i].name)
                out[spans_[i].item] += self[i];
        return out;
    }

    /**
     * Write every span as a complete ("X") trace event; `meta` lands in
     * the top-level otherData object.  Returns false when the file
     * cannot be written.
     */
    bool
    writeChrome(const std::string& path,
                const std::vector<std::pair<std::string, std::string>>&
                    meta) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": {");
        for (size_t i = 0; i < meta.size(); ++i)
            std::fprintf(f, "%s\"%s\": \"%s\"", i ? ", " : "",
                         meta[i].first.c_str(), meta[i].second.c_str());
        std::fprintf(f, "},\n\"traceEvents\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "{\"name\": \"%s\", \"cat\": \"hydrabench\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                         "{\"item\": %llu, \"parent\": %d}}%s\n",
                         s.name, static_cast<double>(s.startNs) * 1e-3,
                         static_cast<double>(s.endNs - s.startNs) * 1e-3,
                         static_cast<unsigned long long>(s.item), s.parent,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    /** Each span's duration minus the time its direct children cover. */
    std::vector<double>
    selfMsPerSpan() const
    {
        std::vector<int64_t> ns(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            ns[i] += s.endNs - s.startNs;
            if (s.parent >= 0)
                ns[static_cast<size_t>(s.parent)] -= s.endNs - s.startNs;
        }
        std::vector<double> ms(ns.size());
        for (size_t i = 0; i < ns.size(); ++i)
            ms[i] = static_cast<double>(ns[i]) * 1e-6;
        return ms;
    }

    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

} // namespace hydrabench

#endif // HYDRABENCH_TRACER_HH
