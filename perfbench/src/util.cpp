#include "util.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ctime>
#include <fstream>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

MachineTimes machine_times() {
  MachineTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  if (stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal &&
      cpu == "cpu") {
    const double tick = 1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
    t.busy = (user + nice + system + irq + softirq) * tick;
    t.steal = steal * tick;
  }
  return t;
}

double steal_share(const MachineTimes& from, const MachineTimes& to) {
  const double steal = to.steal - from.steal;
  const double wanted = steal + (to.busy - from.busy);
  return wanted > 0.0 ? std::clamp(steal / wanted, 0.0, 0.9) : 0.0;
}

void Result::note(const std::string& key, double value) {
  note(key, full_digits(value));
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  // Nearest rank: the smallest value with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

constexpr double kBucketGrowth = 1.01;

// Bucket 0 holds [0, 1) us; bucket i >= 1 holds [1.01^(i-1), 1.01^i) us.
double bucket_low(std::size_t i) {
  return i == 0 ? 0.0 : std::pow(kBucketGrowth, static_cast<double>(i - 1));
}

}  // namespace

void LogHistogram::add(double us) {
  std::size_t i = 0;
  if (us >= 1.0) {
    i = 1 + static_cast<std::size_t>(std::log(us) / std::log(kBucketGrowth));
  }
  ++counts_[std::min(i, kBuckets - 1)];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LogHistogram::percentile(double p) const {
  if (total_ == 0) {
    return 0.0;
  }
  const double rank = std::clamp(
      std::ceil(p / 100.0 * static_cast<double>(total_)), 1.0,
      static_cast<double>(total_));
  double before = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double c = counts_[i];
    if (before + c >= rank) {
      const double lo = bucket_low(i);
      const double hi = bucket_low(i + 1);
      return lo + (hi - lo) * (rank - before - 0.5) / c;
    }
    before += c;
  }
  return bucket_low(kBuckets);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string full_digits(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, std::uint64_t parent)
    : log_(log), name_(std::move(name)), parent_(parent) {
  if (log_.enabled()) {
    begin_us_ = dbn::obs::wall_ts_micros();
    id_ = log_.add(name_, parent_, begin_us_, -1.0);  // closed by ~Scope
  }
}

SpanLog::Scope::~Scope() {
  if (id_ == 0) {
    return;
  }
  const double end_us = dbn::obs::wall_ts_micros();
  const dbn::MutexLock lock(log_.mutex_);
  for (auto it = log_.records_.rbegin(); it != log_.records_.rend(); ++it) {
    if (it->id == id_) {
      it->end_us = end_us;
      it->ops = ops_;
      break;
    }
  }
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent,
                           double begin_us, double end_us, std::uint64_t ops) {
  const dbn::MutexLock lock(mutex_);
  const std::uint64_t id = next_id_++;
  records_.push_back(Record{std::move(name), id, parent, begin_us, end_us, ops});
  return id;
}

std::map<std::string, double> SpanLog::self_times_us() const {
  const dbn::MutexLock lock(mutex_);
  std::unordered_map<std::uint64_t, double> child_cover;
  for (const Record& r : records_) {
    if (r.parent != 0 && r.end_us >= r.begin_us) {
      child_cover[r.parent] += r.end_us - r.begin_us;
    }
  }
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    if (r.end_us < r.begin_us) {
      continue;  // never closed
    }
    const auto it = child_cover.find(r.id);
    const double covered = it == child_cover.end() ? 0.0 : it->second;
    self[r.name] += std::max(0.0, r.end_us - r.begin_us - covered);
  }
  return self;
}

bool SpanLog::write(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const dbn::MutexLock lock(mutex_);
  out << "{\"otherData\":{";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << dbn::obs::json_escape(meta[i].first)
        << "\":\"" << dbn::obs::json_escape(meta[i].second) << "\"";
  }
  out << "},\"traceEvents\":[";
  bool first = true;
  for (const Record& r : records_) {
    if (r.end_us < r.begin_us) {
      continue;
    }
    out << (first ? "" : ",") << "\n{\"name\":\""
        << dbn::obs::json_escape(r.name) << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << (r.parent == 0 ? 0 : 1) << ",\"ts\":"
        << full_digits(r.begin_us) << ",\"dur\":"
        << full_digits(r.end_us - r.begin_us) << ",\"args\":{\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"ops\":" << r.ops << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
