#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "base/parallel.hpp"
#include "core/bcm_conv.hpp"
#include "core/pruning.hpp"
#include "models/model_zoo.hpp"
#include "numeric/emac.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double windowed_quantile(const std::vector<double>& v, double q,
                         std::size_t window, double across) {
  if (v.size() < 3 * window) return quantile(v, q);
  std::vector<double> per_window;
  for (std::size_t b = 0; b + window <= v.size(); b += window)
    per_window.push_back(
        quantile(std::vector<double>(v.begin() + static_cast<long>(b),
                                     v.begin() + static_cast<long>(b + window)),
                 q));
  return quantile(per_window, across);
}

bool tail_supported(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(prec);
  os << v;
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

double Tracer::now_us() const { return us(Clock::now()); }

double Tracer::us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  rpbcm::obs::TraceSession session;
  session.enable();
  session.set_process_name(1, "perfbench");
  for (const Span& s : spans()) {
    std::ostringstream args;
    args << "{\"id\": " << s.id << ", \"parent\": " << s.parent;
    if (s.request >= 0) args << ", \"req\": " << s.request;
    args << '}';
    session.add_complete(s.category, s.name, 1, s.tid, s.start_us, s.dur_us,
                         args.str());
  }
  session.write_json_file(path);
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string category, std::string name,
                       std::uint64_t parent, std::int64_t request,
                       std::uint32_t tid)
    : tracer_(tracer) {
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.name = std::move(name);
  span_.category = std::move(category);
  span_.request = request;
  span_.tid = tid;
  span_.start_us = tracer.now_us();
}

ScopedSpan::~ScopedSpan() {
  span_.dur_us = tracer_.now_us() - span_.start_us;
  tracer_.record(std::move(span_));
}

SpanBreakdown breakdown(const std::vector<Span>& spans,
                        const std::string& root_name) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  auto root_of = [&](const Span& s) -> const Span* {
    const Span* cur = &s;
    while (cur->parent != 0) {
      auto it = by_id.find(cur->parent);
      if (it == by_id.end()) return nullptr;
      cur = it->second;
    }
    return cur;
  };
  SpanBreakdown b;
  double root_us = 0.0;
  std::map<std::string, double> self_us, total_us;
  for (const Span& s : spans) {
    const Span* root = root_of(s);
    if (root == nullptr || root->name != root_name) continue;
    const double self = s.dur_us - child_us[s.id];
    if (&s == root) {
      ++b.roots;
      root_us += s.dur_us;
      self_us["unattributed"] += self;
    } else {
      self_us[s.name] += self;
      total_us[s.name] += s.dur_us;
    }
  }
  if (b.roots == 0) return b;
  const double per_root_ms = 1e-3 / static_cast<double>(b.roots);
  b.root_ms = root_us * per_root_ms;
  for (const auto& [name, us] : self_us) b.self_ms[name] = us * per_root_ms;
  for (const auto& [name, us] : total_us) b.total_ms[name] = us * per_root_ms;
  return b;
}

std::string layer_kind(const rpbcm::nn::Layer& layer) {
  const std::string n = layer.name();
  if (n == "BcmConv2d") return "core.bcm_conv";
  if (n == "Conv2d") return "nn.conv2d";
  if (n == "BatchNorm2d") return "nn.batchnorm";
  if (n == "ReLU") return "nn.relu";
  if (n == "MaxPool2d" || n == "GlobalAvgPool") return "nn.pool";
  if (n == "Linear") return "nn.linear";
  return "nn.other";
}

std::unique_ptr<rpbcm::nn::Sequential> build_vgg(float alpha) {
  rpbcm::models::ScaledNetConfig cfg;
  cfg.base_width = 32;
  cfg.kind = rpbcm::models::ConvKind::kHadaBcm;
  cfg.block_size = 8;
  cfg.seed = kModelSeed;
  auto model = rpbcm::models::make_scaled_vgg(cfg);
  auto set = rpbcm::core::BcmLayerSet::collect(*model);
  if (alpha > 0.0F) rpbcm::core::BcmPruner::apply_ratio(set, alpha);
  for (auto* conv : set.convs()) conv->prepare_inference();
  return model;
}

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr) ? std::string(v) : std::string(fallback);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool comparable_build() {
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
}

std::string fingerprint_json() {
  namespace emac = rpbcm::numeric::emac;
  std::ostringstream os;
  os << "{\"nproc\": " << rpbcm::base::hardware_threads()
     << ", \"pool_threads\": " << rpbcm::base::num_threads()
     << ", \"emac_dispatch\": "
     << json_str(emac::path_name(emac::active_path()))
     << ", \"compiler\": " << json_str(std::string("gcc ") + __VERSION__)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"comparable\": " << (comparable_build() ? "true" : "false")
     << ", \"build\": {\"RPBCM_OBS\": " << PERFBENCH_OBS
     << ", \"RPBCM_SIMD\": " << PERFBENCH_SIMD
     << ", \"RPBCM_FAULTS\": " << PERFBENCH_FAULTS << "}"
     << ", \"env\": {\"RPBCM_OBS\": " << json_str(env_or("RPBCM_OBS", ""))
     << ", \"RPBCM_SIMD\": " << json_str(env_or("RPBCM_SIMD", ""))
     << ", \"RPBCM_FAULTS\": " << json_str(env_or("RPBCM_FAULTS", ""))
     << ", \"RPBCM_THREADS\": " << json_str(env_or("RPBCM_THREADS", ""))
     << "}}";
  return os.str();
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const auto catalog = [] {
    std::vector<std::pair<std::string, std::string>> c;
    for (const char* p : {"b32.", "b1."}) {
      const std::string b(p);
      c.emplace_back(b + "forward_ms", "ms");
      c.emplace_back(b + "core.bcm_conv.rfft_ms", "ms");
      c.emplace_back(b + "core.bcm_conv.emac_irfft_ms", "ms");
      for (const char* t : {"conv2d", "batchnorm", "relu", "pool", "linear"})
        c.emplace_back(b + "nn." + t + "_ms", "ms");
      c.emplace_back(b + "unattributed_ms", "ms");
      c.emplace_back(b + "trace_overhead_frac", "frac");
      c.emplace_back(b + "core.surviving_blocks", "count");
      c.emplace_back(b + "core.emac_block_pixels", "count");
      c.emplace_back(b + "core.spectra_bytes", "bytes");
    }
    c.emplace_back("core.spectra_refresh_ms", "ms");
    for (const char* s : {"step", "forward", "loss", "backward", "sgd",
                          "unattributed"})
      c.emplace_back(std::string("train.") + s + "_ms", "ms");
    for (const char* d : {"fwd.", "bwd."}) {
      c.emplace_back(std::string(d) + "core.bcm_conv_ms", "ms");
      for (const char* t : {"conv2d", "batchnorm", "relu", "pool", "linear"})
        c.emplace_back(std::string(d) + "nn." + t + "_ms", "ms");
    }
    for (const char* r : {".lo", ".hi"}) {
      const std::string s(r);
      c.emplace_back("serve.lat_p50_ms" + s, "ms");
      c.emplace_back("serve.lat_p99_ms" + s, "ms");
      c.emplace_back("serve.queue_wait_p50_ms" + s, "ms");
      c.emplace_back("serve.queue_wait_p99_ms" + s, "ms");
      c.emplace_back("serve.exec_p50_ms" + s, "ms");
      c.emplace_back("serve.batch_size_mean" + s, "count");
      c.emplace_back("serve.fft_stage_ms" + s, "ms");
      c.emplace_back("serve.emac_stage_ms" + s, "ms");
      c.emplace_back("serve.fft_busy_frac" + s, "frac");
      c.emplace_back("serve.emac_busy_frac" + s, "frac");
      c.emplace_back("serve.gen_lag_p99_ms" + s, "ms");
      c.emplace_back("serve.rejected" + s, "count");
      c.emplace_back("serve.deadline_miss" + s, "count");
    }
    c.emplace_back("hw.sim_ms.vgg16", "ms");
    c.emplace_back("hw.sim_ms.resnet50", "ms");
    c.emplace_back("hw.host_ns_per_sim_cycle", "ns");
    c.emplace_back("hw.sim_cycles", "count");
    c.emplace_back("hw.stream_busy_cycles", "count");
    c.emplace_back("hw.stream_stall_cycles", "count");
    return c;
  }();
  return catalog;
}

}  // namespace perfbench
