// Workload `serve`: seeded open-loop Poisson arrivals of single [C, H, W]
// requests into serve::Engine over make_staged(BcmConv2d&, H, W), built from
// one BcmConv2d of the pruned `infer` model at its own resolution. Two
// fixed offered rates (lo, hi) plus a fixed rate ladder for max_rps. The
// batcher, the stage channel and the stage threads do the work; whole-
// network nn layers and hw are bypassed.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <optional>
#include <random>
#include <thread>

#include "common.hpp"
#include "core/bcm_conv.hpp"
#include "numeric/random.hpp"
#include "serve/engine.hpp"
#include "serve/model.hpp"
#include "tensor/init.hpp"

namespace perfbench {
namespace {

using rpbcm::core::BcmConv2d;
using rpbcm::serve::Response;
using rpbcm::serve::Status;
using rpbcm::tensor::Tensor;

// Offered rates (requests/s) and the latency limit. When the benchmark was
// defined the served layer saturated between 3.3k and 6.5k req/s on a
// shared 4-vCPU host, depending on its neighbours; lo is light load and hi
// stays below the knee in the slow case too.
constexpr double kLoRps = 400.0;
constexpr double kHiRps = 1500.0;
// Ladder for max_rps: kHiRps * kLadderStep^k, k = 0..kLadderSteps-1 (up
// to 7.4k req/s), each step long enough for 1100 expected arrivals (p99
// with ten beyond it).
constexpr double kLadderStep = 1.06;
constexpr int kLadderSteps = 28;
constexpr double kLadderSamples = 1100;
// The ladder's p99 latency limit, also the deadline of ladder requests so
// an overloaded step drains. lo and hi requests get a deadline far beyond
// any latency they should see: there a miss is a failure, not a sample.
constexpr double kLimitMs = 25.0;
constexpr double kFixedRateDeadlineMs = 250.0;
constexpr std::size_t kInputs = 128;  // distinct request inputs per run
// Answers per window of the windowed estimators (20 beyond each p90). The
// gated latencies take the lower quartile over windows: the host's
// neighbours slow whole seconds of a run at a time, and a figure from the
// quieter three quarters of the windows follows the program, not them.
constexpr std::size_t kTailWindow = 200;
constexpr double kQuietWindows = 0.25;
// max_rps is the median over this many binary searches of the ladder, each
// probing one try per step: a stall of the host spoils the searches it
// hits, not the figure.
constexpr int kLadderSearches = 7;

/// Forwards to the real staged model and times every stage call; with a
/// tracer, each call is also a span on its stage's track below the current
/// phase span.
class TimedModel : public rpbcm::serve::StagedModel {
 public:
  TimedModel(std::unique_ptr<rpbcm::serve::StagedModel> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::vector<std::size_t> sample_shape() const override {
    return inner_->sample_shape();
  }
  std::vector<std::size_t> output_sample_shape() const override {
    return inner_->output_sample_shape();
  }
  void prepare() override { inner_->prepare(); }

  void stage_rfft(const Tensor& batch,
                  rpbcm::core::ActivationSpectra& spec) const override {
    const auto t0 = Clock::now();
    inner_->stage_rfft(batch, spec);
    note(fft_, t0, "serve.fft_stage", 2);
  }
  Tensor stage_emac_irfft(
      const rpbcm::core::ActivationSpectra& spec) const override {
    const auto t0 = Clock::now();
    Tensor y = inner_->stage_emac_irfft(spec);
    note(emac_, t0, "serve.emac_stage", 3);
    return y;
  }

  struct StageTotals {
    std::uint64_t calls = 0;
    double seconds = 0.0;
  };
  StageTotals fft() const { return read(fft_); }
  StageTotals emac() const { return read(emac_); }
  void set_parent(std::uint64_t id) { parent_.store(id); }

 private:
  struct Counter {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> ns{0};
  };
  void note(Counter& c, Clock::time_point t0, const char* name,
            std::uint32_t tid) const {
    const auto t1 = Clock::now();
    c.calls.fetch_add(1);
    c.ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    if (tracer_ != nullptr) {
      Span s;
      s.id = tracer_->next_id();
      s.parent = parent_.load();
      s.name = name;
      s.category = "serve";
      s.start_us = tracer_->us(t0);
      s.dur_us = tracer_->us(t1) - s.start_us;
      s.tid = tid;
      tracer_->record(std::move(s));
    }
  }
  static StageTotals read(const Counter& c) {
    return {c.calls.load(), static_cast<double>(c.ns.load()) * 1e-9};
  }

  std::unique_ptr<rpbcm::serve::StagedModel> inner_;
  Tracer* tracer_;
  std::atomic<std::uint64_t> parent_{0};
  mutable Counter fft_, emac_;
};

/// The served layer: the first 64 -> 64 BcmConv2d of the pruned VGG proxy,
/// which sees 8x8 inputs.
constexpr std::size_t kServedChannels = 64;
constexpr std::size_t kServedHw = 8;
BcmConv2d& served_layer(rpbcm::nn::Sequential& model) {
  for (std::size_t i = 0; i < model.size(); ++i)
    if (auto* c = dynamic_cast<BcmConv2d*>(&model.layer(i)))
      if (c->spec().in_channels == kServedChannels &&
          c->spec().out_channels == kServedChannels)
        return *c;
  throw rpbcm::CheckError("VGG proxy has no 64->64 BcmConv2d");
}

struct Server {
  std::unique_ptr<rpbcm::nn::Sequential> model;
  BcmConv2d* layer = nullptr;
  std::unique_ptr<TimedModel> staged;
  std::unique_ptr<rpbcm::serve::Engine> engine;
};

std::unique_ptr<Server> start_server(Tracer* tracer) {
  auto s = std::make_unique<Server>();
  s->model = build_vgg(kAlpha);
  s->layer = &served_layer(*s->model);
  s->staged = std::make_unique<TimedModel>(
      rpbcm::serve::make_staged(*s->layer, kServedHw, kServedHw), tracer);
  rpbcm::serve::EngineOptions eo;
  eo.batcher.max_queue_depth = 256;
  s->engine = std::make_unique<rpbcm::serve::Engine>(*s->staged, eo);
  return s;
}

struct PhaseStats {
  double rate = 0;
  std::size_t sent = 0, ok = 0, rejected = 0, deadline_miss = 0,
              mismatched = 0;
  std::vector<double> lat_ms, queue_ms, exec_ms, lag_ms;
  double batch_mean = 0;
  double seconds = 0;    // arrival window
  double wall_s = 0;     // first due time to last answer
  double drain_ms = 0;   // last due time to last answer
  double goodput = 0;    // kOk answers per second of the arrival window
  TimedModel::StageTotals fft, emac;

  /// Appends a later phase at the same rate, as if the two were one.
  void absorb(const PhaseStats& later) {
    const double batches = batch_mean * static_cast<double>(ok) +
                           later.batch_mean * static_cast<double>(later.ok);
    sent += later.sent;
    ok += later.ok;
    rejected += later.rejected;
    deadline_miss += later.deadline_miss;
    mismatched += later.mismatched;
    for (auto [to, from] : {std::pair{&lat_ms, &later.lat_ms},
                            std::pair{&queue_ms, &later.queue_ms},
                            std::pair{&exec_ms, &later.exec_ms},
                            std::pair{&lag_ms, &later.lag_ms}})
      to->insert(to->end(), from->begin(), from->end());
    batch_mean = ok > 0 ? batches / static_cast<double>(ok) : 0.0;
    seconds += later.seconds;
    wall_s += later.wall_s;
    drain_ms = std::max(drain_ms, later.drain_ms);
    goodput = seconds > 0 ? static_cast<double>(ok) / seconds : 0.0;
    fft = {fft.calls + later.fft.calls, fft.seconds + later.fft.seconds};
    emac = {emac.calls + later.emac.calls, emac.seconds + later.emac.seconds};
  }

  /// The ladder criterion: p99 over every request sent, a refused or
  /// missed one counting as over the limit, within kLimitMs, and the last
  /// answer no later than kLimitMs after the last due time (no backlog).
  bool meets_limit() const {
    if (!tail_supported(sent, 0.99)) return false;
    std::vector<double> all = lat_ms;
    all.resize(sent, std::numeric_limits<double>::infinity());
    return quantile(all, 0.99) <= kLimitMs && drain_ms <= kLimitMs;
  }
};

/// One open-loop phase: `rate` req/s for `seconds`, arrival times drawn
/// from a seeded exponential, every request due at its scheduled instant
/// and deadlined `deadline_ms` after it. The calling thread is the
/// generator.
PhaseStats run_phase(Server& srv, const std::vector<Tensor>& inputs,
                     const std::vector<Tensor>& refs, double rate,
                     double seconds, double deadline_ms, std::uint64_t seed,
                     Tracer* tracer, const std::string& name,
                     bool& corrupt_pending) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> offsets;
  for (double t = gap(gen); t < seconds; t += gap(gen)) offsets.push_back(t);
  const std::size_t n = offsets.size();

  std::optional<ScopedSpan> phase;
  if (tracer != nullptr) {
    phase.emplace(*tracer, "serve", name, 0);
    srv.staged->set_parent(phase->id());
  }
  const auto fft0 = srv.staged->fft(), emac0 = srv.staged->emac();

  PhaseStats st;
  st.rate = rate;
  st.sent = n;
  std::vector<Clock::time_point> due(n), sub(n);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  Clock::time_point last = start;
  double batch_sum = 0;

  // Answers are taken in submission order as they become ready, by the
  // generator between sends and after the schedule, so the benchmark holds
  // only the requests still in flight and adds no thread of its own.
  std::deque<std::future<Response>> inflight;
  std::size_t collected = 0;
  auto collect = [&](std::size_t k, Response resp) {
    const double lag = seconds_between(due[k], sub[k]);
    st.lag_ms.push_back(lag * 1e3);
    last = std::max(last, sub[k] + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           resp.queue_wait_seconds +
                                           resp.exec_seconds)));
    if (resp.status != Status::kOk) {
      if (resp.status == Status::kRejected) ++st.rejected;
      if (resp.status == Status::kDeadlineMiss) ++st.deadline_miss;
      return;
    }
    ++st.ok;
    if (corrupt_pending) {  // self-test hook: one flipped payload bit
      std::uint32_t bits = 0;
      std::memcpy(&bits, resp.output.data(), sizeof bits);
      bits ^= 1U;
      std::memcpy(resp.output.data(), &bits, sizeof bits);
      corrupt_pending = false;
    }
    const Tensor& want = refs[k % refs.size()];
    if (resp.output.size() != want.size() ||
        !same_bits(resp.output.data(), want.data(), want.size()))
      ++st.mismatched;
    const double lat = lag + resp.queue_wait_seconds + resp.exec_seconds;
    st.lat_ms.push_back(lat * 1e3);
    st.queue_ms.push_back(resp.queue_wait_seconds * 1e3);
    st.exec_ms.push_back(resp.exec_seconds * 1e3);
    batch_sum += static_cast<double>(resp.batch_size);
    if (tracer == nullptr) return;
    // Request span from due time to answer, with its queue wait and
    // execution as children; all three carry the request id.
    Span rs;
    rs.id = tracer->next_id();
    rs.parent = phase->id();
    rs.name = "serve.request";
    rs.category = "serve";
    rs.start_us = tracer->us(due[k]);
    rs.dur_us = lat * 1e6;
    rs.request = static_cast<std::int64_t>(k);
    rs.tid = 10 + static_cast<std::uint32_t>(k % 32);
    Span qw = rs, ex = rs;
    qw.id = tracer->next_id();
    qw.parent = rs.id;
    qw.name = "serve.queue_wait";
    qw.start_us = tracer->us(sub[k]);
    qw.dur_us = resp.queue_wait_seconds * 1e6;
    ex.id = tracer->next_id();
    ex.parent = rs.id;
    ex.name = "serve.exec";
    ex.start_us = qw.start_us + qw.dur_us;
    ex.dur_us = resp.exec_seconds * 1e6;
    tracer->record(std::move(rs));
    tracer->record(std::move(qw));
    tracer->record(std::move(ex));
  };
  auto drain = [&](bool block) {
    while (!inflight.empty() &&
           (block || inflight.front().wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      collect(collected++, inflight.front().get());
      inflight.pop_front();
    }
  };

  const auto deadline = std::chrono::microseconds(
      static_cast<std::int64_t>(deadline_ms * 1000));
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets[k]));
    std::this_thread::sleep_until(due[k]);
    rpbcm::serve::Request req;
    req.input = inputs[k % inputs.size()];
    req.deadline = due[k] + deadline;
    sub[k] = Clock::now();
    inflight.push_back(srv.engine->submit(std::move(req)));
    drain(false);
  }
  drain(true);

  st.batch_mean = st.ok > 0 ? batch_sum / static_cast<double>(st.ok) : 0.0;
  st.wall_s = n > 0 ? seconds_between(due.front(), last) : 0.0;
  st.drain_ms = n > 0 ? seconds_between(due.back(), last) * 1e3 : 0.0;
  st.seconds = seconds;
  st.goodput = static_cast<double>(st.ok) / seconds;
  const auto fft1 = srv.staged->fft(), emac1 = srv.staged->emac();
  st.fft = {fft1.calls - fft0.calls, fft1.seconds - fft0.seconds};
  st.emac = {emac1.calls - emac0.calls, emac1.seconds - emac0.seconds};
  return st;
}

void report_phase(Result& r, PhaseStats& st, const std::string& sfx) {
  auto per_call_ms = [](const TimedModel::StageTotals& t) {
    return t.calls > 0 ? t.seconds * 1e3 / static_cast<double>(t.calls) : 0.0;
  };
  auto busy = [&](const TimedModel::StageTotals& t) {
    return st.wall_s > 0 ? t.seconds / st.wall_s : 0.0;
  };
  r.set("serve.lat_p50_ms" + sfx, median(st.lat_ms), "ms");
  r.set("serve.lat_p99_ms" + sfx, quantile(st.lat_ms, 0.99), "ms");
  r.set("serve.queue_wait_p50_ms" + sfx, median(st.queue_ms), "ms");
  r.set("serve.queue_wait_p99_ms" + sfx, quantile(st.queue_ms, 0.99), "ms");
  r.set("serve.exec_p50_ms" + sfx, median(st.exec_ms), "ms");
  r.set("serve.batch_size_mean" + sfx, st.batch_mean, "count");
  r.set("serve.fft_stage_ms" + sfx, per_call_ms(st.fft), "ms");
  r.set("serve.emac_stage_ms" + sfx, per_call_ms(st.emac), "ms");
  r.set("serve.fft_busy_frac" + sfx, busy(st.fft), "frac");
  r.set("serve.emac_busy_frac" + sfx, busy(st.emac), "frac");
  r.set("serve.gen_lag_p99_ms" + sfx, quantile(st.lag_ms, 0.99), "ms");
  r.set("serve.rejected" + sfx, static_cast<double>(st.rejected), "count");
  r.set("serve.deadline_miss" + sfx, static_cast<double>(st.deadline_miss),
        "count");
}

std::string phase_line(const std::string& name, PhaseStats& st) {
  return "serve " + name + ": offered " + fmt(st.rate, 0) + " req/s, sent " +
         std::to_string(st.sent) + ", ok " + std::to_string(st.ok) +
         ", rejected " + std::to_string(st.rejected) + ", deadline_miss " +
         std::to_string(st.deadline_miss) + ", lat p50 " +
         fmt(median(st.lat_ms)) + " ms, p99 " +
         fmt(quantile(st.lat_ms, 0.99)) + " ms" +
         (tail_supported(st.lat_ms.size(), 0.99) ? "" : " (under-sampled)") +
         ", gen lag p99 " + fmt(quantile(st.lag_ms, 0.99)) + " ms, batch " +
         fmt(st.batch_mean, 2) + ", goodput " + fmt(st.goodput, 1) + " req/s";
}

}  // namespace

Result run_serve(const Options& opt) {
  Result r;
  const int setup_reps = opt.smoke ? 1 : 15;
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>();

  // Inputs: the only thing the seed changes (besides the arrival times).
  rpbcm::numeric::Rng rng(opt.seed);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < kInputs; ++i) {
    Tensor x({kServedChannels, kServedHw, kServedHw});
    rpbcm::tensor::fill_gaussian(x, rng);
    inputs.push_back(std::move(x));
  }

  // Set-up: build, prune, spectra prepare, engine start, 64 warm-up
  // requests. Every repetition but the last stops its engine.
  std::unique_ptr<Server> srv;
  const double setup_s = median_time_s(setup_reps, [&] {
    srv.reset();
    srv = start_server(tracer.get());
    std::vector<std::future<Response>> warm;
    for (std::size_t i = 0; i < 64; ++i) {
      rpbcm::serve::Request req;
      req.input = inputs[i % inputs.size()];
      warm.push_back(srv->engine->submit(std::move(req)));
    }
    for (auto& f : warm) f.get();
  });

  // References: the layer's direct staged inference of each input, solo.
  std::vector<Tensor> refs;
  for (const Tensor& x : inputs) {
    Tensor one({1, kServedChannels, kServedHw, kServedHw});
    std::memcpy(one.data(), x.data(), x.size() * sizeof(float));
    rpbcm::core::ActivationSpectra spec;
    srv->layer->infer_rfft(one, spec);
    Tensor y = srv->layer->infer_emac_irfft(spec);
    refs.push_back(std::move(y));
  }

  // Peak RSS of the warmed-up server. The open-loop phases hold whatever a
  // stall of the host queues up, which would make it noise.
  const double rss_mb = peak_rss_mb();

  bool corrupt_pending = opt.corrupt;
  auto account = [&](PhaseStats& st, bool all_must_pass) {
    for (std::size_t i = 0; i < st.ok; ++i) r.check(i >= st.mismatched);
    // At lo and hi every request must be answered; on the ladder refusals
    // are the measurement, not failures.
    if (all_must_pass)
      for (std::size_t i = st.ok; i < st.sent; ++i) r.count(false);
  };

  const double scale = opt.smoke ? 0.05 : 1.0;
  // lo carries the gated latencies: long enough for 1100 expected answers
  // (p99 with ten beyond) and, untraced, for a couple of dozen p90 windows.
  // Untraced, it runs in slices: one before hi and one after each ladder
  // search, so a slow stretch of the host lands in a few of its windows
  // rather than in all of them.
  const double lo_s = std::max(opt.seconds * 0.4, 1100.0 / kLoRps) * scale;
  const double hi_s = opt.seconds * (opt.trace ? 0.6 : 0.15) * scale;
  const int lo_slices = opt.trace ? 1 : kLadderSearches + 1;
  auto lo_slice = [&](int i) {
    return run_phase(*srv, inputs, refs, kLoRps, lo_s / lo_slices,
                     kFixedRateDeadlineMs,
                     opt.seed * 64 + 1 + 4 * static_cast<std::uint64_t>(i),
                     tracer.get(), "serve.lo", corrupt_pending);
  };
  PhaseStats lo = lo_slice(0);
  PhaseStats hi = run_phase(*srv, inputs, refs, kHiRps, hi_s,
                            kFixedRateDeadlineMs, opt.seed * 4 + 2,
                            tracer.get(), "serve.hi", corrupt_pending);
  account(hi, true);
  r.note(phase_line("hi", hi));

  if (!opt.trace) {
    // Ladder: each search bisects the steps for the highest one that meets
    // the limit (below the lowest step: none). Its figure is that step's
    // goodput, or, when no step passes, the higher fixed rate that meets the
    // limit.
    const double below_ladder = hi.meets_limit() ? hi.goodput : lo.goodput;
    std::vector<double> found_rps;
    std::vector<int> found_steps;
    for (int search = 0; search < kLadderSearches; ++search) {
      int pass_k = -1, miss_k = kLadderSteps;
      double goodput = below_ladder;
      while (miss_k - pass_k > 1) {
        const int k = (pass_k + miss_k) / 2;
        const double rate = kHiRps * std::pow(kLadderStep, k);
        PhaseStats st = run_phase(
            *srv, inputs, refs, rate, kLadderSamples / rate * scale, kLimitMs,
            opt.seed * 1000 + 100 * static_cast<std::uint64_t>(search) +
                static_cast<std::uint64_t>(k),
            nullptr, "serve.ladder", corrupt_pending);
        account(st, false);
        const bool pass = st.meets_limit() || (opt.smoke && st.ok == st.sent);
        r.note("ladder " + std::to_string(search) + " " +
               (pass ? "pass" : "miss") + ": " +
               phase_line(std::to_string(k), st));
        if (pass) {
          pass_k = k;
          goodput = st.goodput;
        } else {
          miss_k = k;
        }
      }
      found_rps.push_back(goodput);
      found_steps.push_back(pass_k);
      lo.absorb(lo_slice(search + 1));
    }
    account(lo, true);
    r.note(phase_line("lo", lo));
    const double max_rps = median(found_rps);
    std::string steps;
    for (int k : found_steps)
      steps += (steps.empty() ? "" : " ") + std::to_string(k);
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", rss_mb, "MB");
    r.set("items_per_s", max_rps, "1/s");
    // The gated latencies are lo's: at hi the emac stage is ~40% busy and
    // queueing multiplies every stall of the host into the tail.
    const double lo_p50 =
        windowed_quantile(lo.lat_ms, 0.50, kTailWindow, kQuietWindows);
    const double lo_p90 =
        windowed_quantile(lo.lat_ms, 0.90, kTailWindow, kQuietWindows);
    r.set("lat_p50_ms", lo_p50, "ms");
    r.set("lat_p90_ms", lo_p90, "ms");
    r.note("serve: max_rps = " + fmt(max_rps, 1) + " req/s (median over " +
           std::to_string(kLadderSearches) +
           " searches; highest passing steps " + steps +
           "; limit p99 <= " + fmt(kLimitMs, 1) + " ms)");
    r.note("serve: gated lo p50 = " + fmt(lo_p50) + ", p90 = " +
           fmt(lo_p90) + " ms (lower quartile over " +
           std::to_string(lo.lat_ms.size() / kTailWindow) + " windows of " +
           std::to_string(kTailWindow) + " answers)");
    r.note("serve: lat_p50_ms.lo = " + fmt(median(lo.lat_ms)) +
           ", lat_p99_ms.lo = " + fmt(quantile(lo.lat_ms, 0.99)) +
           ", lat_p50_ms.hi = " + fmt(median(hi.lat_ms)) +
           ", lat_p90_ms.hi = " +
           fmt(windowed_quantile(hi.lat_ms, 0.90, kTailWindow)) +
           ", lat_p99_ms.hi = " + fmt(quantile(hi.lat_ms, 0.99)) + " ms");
  } else {
    account(lo, true);
    r.note(phase_line("lo", lo));
    report_phase(r, lo, ".lo");
    report_phase(r, hi, ".hi");
  }
  srv->engine->stop(true);
  if (tracer && !opt.trace_out.empty())
    tracer->write_chrome_trace(opt.trace_out);
  r.note("serve: setup_s = " + fmt(setup_s) + " s (median of " +
         std::to_string(setup_reps) + ")");
  return r;
}

}  // namespace perfbench
