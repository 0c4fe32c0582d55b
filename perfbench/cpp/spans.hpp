// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a library layer, timed from the caller's side:
// name, layer, start, end, parent span, thread, request id and a few
// numeric args. Spans and counter samples stay in memory and are written
// once, at the end of the run, as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing). Parents default to the innermost span open
// on the calling thread; work handed to a pool thread names its parent
// explicitly. Self time is derived from the file afterwards (spans.py).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Args = std::vector<std::pair<std::string, double>>;

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int thread = 0;
    std::int64_t request = -1;
    Args args;
};

/// A sampled value inside a span (e.g. one residual checkpoint of a solve).
struct Counter {
    std::string name;
    std::uint64_t span = 0;
    std::int64_t at_ns = 0;
    int thread = 0;
    Args values;
};

class Recorder {
public:
    static constexpr std::uint64_t kCurrent = ~std::uint64_t{0};

    Recorder() : origin_(std::chrono::steady_clock::now()) {}
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    std::uint64_t begin(std::string name, std::string layer, std::int64_t request,
                        std::uint64_t parent = kCurrent) {
        Span span;
        span.parent = parent == kCurrent ? current() : parent;
        span.name = std::move(name);
        span.layer = std::move(layer);
        span.thread = thread_index();
        span.request = request;
        span.start_ns = now_ns();
        std::uint64_t id = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            id = spans_.size() + 1;
            span.id = id;
            spans_.push_back(std::move(span));
        }
        open_stack().push_back(id);
        return id;
    }

    void end(std::uint64_t id, Args args = {}) {
        const std::int64_t t = now_ns();
        std::vector<std::uint64_t>& stack = open_stack();
        if (!stack.empty() && stack.back() == id) {
            stack.pop_back();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        Span& span = spans_[id - 1];
        span.end_ns = t;
        for (auto& arg : args) {
            span.args.push_back(std::move(arg));
        }
    }

    void counter(std::string name, std::uint64_t span, Args values) {
        Counter c{std::move(name), span, now_ns(), thread_index(), std::move(values)};
        std::lock_guard<std::mutex> lock(mutex_);
        counters_.push_back(std::move(c));
    }

    /// Writes {"traceEvents": [...], "otherData": <other_json>}; complete
    /// ("X") events carry id/parent/request/layer in their args so the
    /// span tree survives the round trip. Returns false on I/O error.
    bool write_chrome(const std::string& path, const std::string& other_json) const {
        std::FILE* out = std::fopen(path.c_str(), "w");
        if (out == nullptr) {
            return false;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        bool first = true;
        for (const Span& s : spans_) {
            std::fprintf(out,
                         "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                         "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                         "\"args\": {\"id\": %llu, \"parent\": %llu, \"request\": %lld, "
                         "\"layer\": \"%s\"",
                         first ? "" : ",\n", escaped(s.name).c_str(), escaped(s.layer).c_str(),
                         s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3, s.thread,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<long long>(s.request), escaped(s.layer).c_str());
            write_args(out, s.args);
            std::fprintf(out, "}}");
            first = false;
        }
        for (const Counter& c : counters_) {
            std::fprintf(out,
                         "%s{\"name\": \"%s\", \"ph\": \"C\", \"ts\": %.3f, \"pid\": 1, "
                         "\"tid\": %d, \"args\": {\"span\": %llu",
                         first ? "" : ",\n", escaped(c.name).c_str(), c.at_ns / 1e3, c.thread,
                         static_cast<unsigned long long>(c.span));
            write_args(out, c.values);
            std::fprintf(out, "}}");
            first = false;
        }
        std::fprintf(out, "\n], \"otherData\": %s}\n", other_json.c_str());
        return std::fclose(out) == 0;
    }

    static std::string escaped(const std::string& text) {
        std::string out;
        for (const char ch : text) {
            if (ch == '"' || ch == '\\') {
                out += '\\';
                out += ch;
            } else if (static_cast<unsigned char>(ch) < 0x20) {
                out += ' ';
            } else {
                out += ch;
            }
        }
        return out;
    }

private:
    static void write_args(std::FILE* out, const Args& args) {
        for (const auto& [key, value] : args) {
            std::fprintf(out, ", \"%s\": %.17g", escaped(key).c_str(), value);
        }
    }

    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    static std::vector<std::uint64_t>& open_stack() {
        thread_local std::vector<std::uint64_t> stack;
        return stack;
    }

    static std::uint64_t current() {
        const std::vector<std::uint64_t>& stack = open_stack();
        return stack.empty() ? 0 : stack.back();
    }

    static int thread_index() {
        static std::mutex mutex;
        static int next = 0;
        thread_local int index = -1;
        if (index < 0) {
            std::lock_guard<std::mutex> lock(mutex);
            index = next++;
        }
        return index;
    }

    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;  // guards spans_ and counters_
    std::vector<Span> spans_;
    std::vector<Counter> counters_;
};

/// RAII span: begins on construction, ends (with any args added) on scope
/// exit.
class ScopedSpan {
public:
    ScopedSpan(Recorder& recorder, std::string name, std::string layer, std::int64_t request,
               std::uint64_t parent = Recorder::kCurrent)
        : recorder_(recorder),
          id_(recorder.begin(std::move(name), std::move(layer), request, parent)) {}
    ~ScopedSpan() { recorder_.end(id_, std::move(args_)); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void arg(std::string key, double value) { args_.emplace_back(std::move(key), value); }
    std::uint64_t id() const { return id_; }

private:
    Recorder& recorder_;
    std::uint64_t id_;
    Args args_;
};

}  // namespace perfbench
