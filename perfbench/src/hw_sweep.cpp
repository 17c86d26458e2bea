// Workload `hw_sweep`: hw::simulate_accelerator over a fixed grid of
// alpha x p x DataflowKind x skip_scheme on the full-size VGG-16 (CIFAR) and
// ResNet-50 (ImageNet) shapes. Only hw runs; every other workload bypasses
// it. Times are host time; the cycle counts are simulated.
#include <optional>

#include "common.hpp"
#include "hw/accelerator.hpp"
#include "models/model_zoo.hpp"

namespace perfbench {
namespace {

struct Point {
  const rpbcm::core::NetworkShape* net;
  bool resnet;
  rpbcm::core::BcmCompressionConfig ccfg;
  rpbcm::hw::HwConfig hcfg;
};

std::vector<Point> grid(const rpbcm::core::NetworkShape& vgg,
                        const rpbcm::core::NetworkShape& resnet) {
  using rpbcm::hw::DataflowKind;
  std::vector<Point> g;
  for (const double alpha : {0.0, 0.5, 0.84})
    for (const std::size_t p : {8, 16, 32})
      for (const DataflowKind d : {DataflowKind::kFineGrained,
                                   DataflowKind::kMonolithic,
                                   DataflowKind::kSerial})
        for (const bool skip : {true, false})
          for (const bool is_resnet : {false, true}) {
            Point pt;
            pt.net = is_resnet ? &resnet : &vgg;
            pt.resnet = is_resnet;
            pt.ccfg.alpha = alpha;
            pt.hcfg.parallelism = p;
            pt.hcfg.dataflow = d;
            pt.hcfg.skip_scheme = skip;
            g.push_back(pt);
          }
  return g;
}

/// FNV-1a over every simulated figure of a report: repeated simulations of
/// one point must reproduce it exactly.
std::uint64_t digest(const rpbcm::hw::AcceleratorReport& rep) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  };
  auto mix_stats = [&](const auto& streams) {
    for (const auto& s : streams) {
      mix(&s.busy, sizeof s.busy);
      mix(&s.stall_data, sizeof s.stall_data);
      mix(&s.stall_buffer, sizeof s.stall_buffer);
    }
  };
  mix(&rep.total_cycles, sizeof rep.total_cycles);
  mix(&rep.latency_ms, sizeof rep.latency_ms);
  mix(&rep.fps, sizeof rep.fps);
  const double power = rep.power.total_w();
  mix(&power, sizeof power);
  mix(&rep.resources.kilo_luts, sizeof rep.resources.kilo_luts);
  mix(&rep.resources.dsps, sizeof rep.resources.dsps);
  mix_stats(rep.stream_stats);
  for (const auto& l : rep.layers) {
    const std::uint64_t f[] = {l.fft,        l.emac,        l.skip_check,
                               l.ifft,       l.input_read,  l.weight_read,
                               l.output_write, l.total};
    mix(f, sizeof f);
    mix_stats(l.streams);
  }
  return h;
}

}  // namespace

Result run_hw_sweep(const Options& opt) {
  Result r;
  const int setup_reps = opt.smoke ? 1 : 15;

  rpbcm::core::NetworkShape vgg, resnet;
  std::vector<Point> points;
  // Set-up: the network shapes, the grid, and one warm-up simulation per
  // network.
  const double setup_s = median_time_s(setup_reps, [&] {
    vgg = rpbcm::models::vgg16_cifar_shape();
    resnet = rpbcm::models::resnet50_imagenet_shape();
    points = grid(vgg, resnet);
    rpbcm::hw::simulate_accelerator(*points[0].net, points[0].ccfg,
                                    points[0].hcfg);
    rpbcm::hw::simulate_accelerator(*points[1].net, points[1].ccfg,
                                    points[1].hcfg);
  });

  // The seed only orders the sweep: each sweep visits the grid in a seeded
  // permutation, so no order-dependent caching can hide in a fixed order.
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::uint64_t s = opt.seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t i = order.size(); i > 1; --i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    std::swap(order[i - 1], order[s % i]);
  }

  std::vector<std::uint64_t> want(points.size());
  std::vector<bool> seen(points.size(), false);
  std::vector<double> sweep_s;
  double cycles = 0, busy = 0, stall = 0;
  bool corrupt_pending = opt.corrupt;
  Tracer tracer;

  auto sweep = [&](std::size_t) {
    const auto t0 = Clock::now();
    std::optional<ScopedSpan> root;
    if (opt.trace) root.emplace(tracer, "hw", "sweep", 0);
    for (const std::size_t i : order) {
      const Point& pt = points[i];
      rpbcm::hw::AcceleratorReport rep;
      {
        std::optional<ScopedSpan> span;
        if (root)
          span.emplace(tracer, "hw",
                       pt.resnet ? "hw.sim.resnet50" : "hw.sim.vgg16",
                       root->id());
        rep = rpbcm::hw::simulate_accelerator(*pt.net, pt.ccfg, pt.hcfg);
      }
      if (corrupt_pending && seen[i]) {  // self-test hook: a repeat differs
        rep.total_cycles ^= 1;
        corrupt_pending = false;
      }
      if (!seen[i]) {
        seen[i] = true;
        want[i] = digest(rep);
        cycles += static_cast<double>(rep.total_cycles);
        for (const auto& st : rep.stream_stats) {
          busy += static_cast<double>(st.busy);
          stall += static_cast<double>(st.stall_data + st.stall_buffer);
        }
        r.check(true);
      } else {
        r.check(digest(rep) == want[i]);
      }
    }
    return seconds_between(t0, Clock::now());
  };
  // The first sweep fills the reference reports; it is timed like the rest.
  sweep_s = timed_loop(opt.seconds, opt.smoke ? 2 : 100, sweep);

  const double per_sweep = static_cast<double>(points.size());
  const double sims_per_s = per_sweep / median(sweep_s);
  if (!opt.trace) {
    // Per-simulation host time, averaged within each sweep: single
    // simulations range from microseconds (analytic dataflows) to
    // milliseconds (pipelined ResNet-50), so their own order statistics
    // jump between modes; the per-sweep mean does not.
    std::vector<double> per_sim;
    for (const double t : sweep_s) per_sim.push_back(t * 1e3 / per_sweep);
    const double p50 = median(per_sim);
    const double p90 = quantile(per_sim, 0.90);
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("items_per_s", sims_per_s, "1/s");
    r.set("lat_p50_ms", p50, "ms");
    r.set("lat_p90_ms", p90, "ms");
    r.note("hw_sweep: sims_per_s = " + fmt(sims_per_s, 1) + " 1/s (" +
           std::to_string(points.size()) + " points per sweep, median of " +
           std::to_string(sweep_s.size()) +
           " sweeps); ms per simulation p50 = " +
           fmt(p50) + ", p90 = " + fmt(p90) +
           (tail_supported(sweep_s.size(), 0.90) ? "" : " (under-sampled)"));
  } else {
    // Host time per simulation from the spans (mean over all of one
    // network's points); simulated counts are one sweep's exact totals.
    const SpanBreakdown bd = breakdown(tracer.spans(), "sweep");
    const double half = per_sweep / 2;  // each network is half the grid
    r.set("hw.sim_ms.vgg16", bd.self("hw.sim.vgg16") / half, "ms");
    r.set("hw.sim_ms.resnet50", bd.self("hw.sim.resnet50") / half, "ms");
    r.set("hw.host_ns_per_sim_cycle", bd.root_ms * 1e6 / cycles, "ns");
    r.set("hw.sim_cycles", cycles, "count");
    r.set("hw.stream_busy_cycles", busy, "count");
    r.set("hw.stream_stall_cycles", stall, "count");
    r.note("hw_sweep traced: " + std::to_string(bd.roots) + " sweeps, " +
           fmt(bd.root_ms) + " ms per sweep");
    if (!opt.trace_out.empty()) tracer.write_chrome_trace(opt.trace_out);
  }
  r.note("hw_sweep: setup_s = " + fmt(setup_s, 6) + " s (median of " +
         std::to_string(setup_reps) + ")");
  return r;
}

}  // namespace perfbench
