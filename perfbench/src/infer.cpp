// Workload `infer`: the pruned hadaBCM VGG-16 proxy in a closed loop from
// one caller — a batch-32 phase for throughput, then a batch-1 phase for
// latency. serve and hw are bypassed.
#include <cmath>
#include <cstring>
#include <optional>

#include "common.hpp"
#include "core/bcm_conv.hpp"
#include "core/pruning.hpp"
#include "nn/conv2d.hpp"
#include "numeric/random.hpp"
#include "numeric/rfft.hpp"
#include "tensor/init.hpp"

namespace perfbench {
namespace {

using rpbcm::core::BcmConv2d;
using rpbcm::nn::Sequential;
using rpbcm::tensor::Tensor;

constexpr std::size_t kBatch = 32;
constexpr std::size_t kImage = 16;
// Batch-1 latencies per window of the windowed estimators (20 beyond each
// p90). The gated latencies take the lower quartile over windows, as in
// `serve`: the host's neighbours slow whole seconds of a run at a time.
constexpr std::size_t kTailWindow = 200;
constexpr double kQuietWindows = 0.25;
// Untraced, the batch-32 and batch-1 phases alternate in this many slices
// each, so a slow stretch of the host lands in a few windows of each rather
// than in all of one.
constexpr std::size_t kSlices = 8;

/// Copy of image `i` of a [N, C, H, W] batch as a [1, C, H, W] tensor.
Tensor slice(const Tensor& batch, std::size_t i) {
  const std::size_t per = batch.size() / batch.dim(0);
  Tensor one({1, batch.dim(1), batch.dim(2), batch.dim(3)});
  std::memcpy(one.data(), batch.data() + i * per, per * sizeof(float));
  return one;
}

/// Forward pass layer by layer with BCM layers run through the staged entry
/// points (prepare_inference, infer_rfft, infer_emac_irfft). With a tracer,
/// every call into a layer is a span below one "forward" root.
Tensor staged_forward(Sequential& model, const Tensor& x, Tracer* tracer,
                      const std::string& category) {
  std::optional<ScopedSpan> root;
  if (tracer) root.emplace(*tracer, category, "forward", 0);
  const std::uint64_t root_id = root ? root->id() : 0;
  Tensor cur = x;
  for (std::size_t i = 0; i < model.size(); ++i) {
    rpbcm::nn::Layer& layer = model.layer(i);
    const std::string kind = layer_kind(layer);
    std::optional<ScopedSpan> ls;
    if (tracer) ls.emplace(*tracer, category, kind, root_id);
    const std::uint64_t layer_id = ls ? ls->id() : 0;
    auto* bcm = dynamic_cast<BcmConv2d*>(&layer);
    if (bcm == nullptr) {
      cur = layer.forward(cur, false);
      continue;
    }
    auto step = [&](const char* name, auto&& fn) {
      std::optional<ScopedSpan> s;
      if (tracer) s.emplace(*tracer, category, name, layer_id);
      fn();
    };
    rpbcm::core::ActivationSpectra spec;
    step("core.spectra_refresh", [&] { bcm->prepare_inference(); });
    step("core.bcm_conv.rfft", [&] { bcm->infer_rfft(cur, spec); });
    step("core.bcm_conv.emac_irfft",
         [&] { cur = bcm->infer_emac_irfft(spec); });
  }
  return cur;
}

/// Surviving blocks times the valid kernel taps of every output pixel: the
/// eMAC operation count of one image through one layer (each unit is one
/// (BS/2+1)-bin complex multiply-accumulate).
std::uint64_t emac_block_pixels(const BcmConv2d& conv, std::size_t h,
                                std::size_t w) {
  const auto& lay = conv.layout();
  const auto& spec = conv.spec();
  const auto& skip = conv.skip_index();
  const std::size_t k = spec.kernel;
  std::vector<std::uint64_t> per_tap(k * k, 0);
  for (std::size_t kh = 0; kh < k; ++kh)
    for (std::size_t kw = 0; kw < k; ++kw)
      for (std::size_t bi = 0; bi < lay.in_blocks(); ++bi)
        for (std::size_t bo = 0; bo < lay.out_blocks(); ++bo)
          per_tap[kh * k + kw] += skip[lay.block_id(kh, kw, bi, bo)];
  std::uint64_t total = 0;
  const std::size_t ho = spec.out_dim(h), wo = spec.out_dim(w);
  for (std::size_t oh = 0; oh < ho; ++oh)
    for (std::size_t ow = 0; ow < wo; ++ow)
      for (std::size_t kh = 0; kh < k; ++kh)
        for (std::size_t kw = 0; kw < k; ++kw) {
          const long ih = static_cast<long>(oh * spec.stride + kh) -
                          static_cast<long>(spec.pad);
          const long iw = static_cast<long>(ow * spec.stride + kw) -
                          static_cast<long>(spec.pad);
          if (ih < 0 || iw < 0 || ih >= static_cast<long>(h) ||
              iw >= static_cast<long>(w))
            continue;
          total += per_tap[kh * k + kw];
        }
  return total;
}

struct OpCounts {
  double surviving_blocks = 0, emac_block_pixels = 0, spectra_bytes = 0;
};

/// Per-image counts of the BCM layers, from the shapes each layer sees.
OpCounts count_ops(Sequential& model) {
  OpCounts c;
  std::size_t h = kImage, w = kImage;
  for (std::size_t i = 0; i < model.size(); ++i) {
    rpbcm::nn::Layer& layer = model.layer(i);
    if (auto* bcm = dynamic_cast<BcmConv2d*>(&layer)) {
      const auto& lay = bcm->layout();
      c.surviving_blocks +=
          static_cast<double>(lay.total_blocks() - bcm->pruned_count());
      c.emac_block_pixels += static_cast<double>(emac_block_pixels(*bcm, h, w));
      // Activation half spectra: written by the rFFT stage, read by the
      // eMAC stage — re and im planes of float.
      const std::size_t floats = h * w * lay.in_blocks() *
                                 rpbcm::numeric::half_bins(lay.block_size) * 2;
      c.spectra_bytes += static_cast<double>(2 * floats * sizeof(float));
      h = bcm->spec().out_dim(h);
      w = bcm->spec().out_dim(w);
    } else if (auto* conv = dynamic_cast<rpbcm::nn::Conv2d*>(&layer)) {
      h = conv->spec().out_dim(h);
      w = conv->spec().out_dim(w);
    } else if (layer.name() == "MaxPool2d") {
      h /= 2;
      w /= 2;
    }
  }
  return c;
}

/// One BcmConv2d against its dense_weights() realization through the dense
/// reference convolution: relative max error within the FFT round-off.
bool dense_reference_matches(Sequential& model, std::uint64_t seed) {
  BcmConv2d* conv = nullptr;
  for (std::size_t i = 0; i < model.size() && conv == nullptr; ++i)
    conv = dynamic_cast<BcmConv2d*>(&model.layer(i));
  RPBCM_CHECK(conv != nullptr);
  rpbcm::numeric::Rng rng(seed ^ 0xd5eULL);
  Tensor x({2, conv->spec().in_channels, kImage, kImage});
  rpbcm::tensor::fill_gaussian(x, rng);
  const Tensor got = conv->infer(x);
  const Tensor want =
      rpbcm::nn::conv2d_reference(x, conv->dense_weights(), conv->spec());
  double max_err = 0, max_ref = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    max_err = std::max(max_err, std::fabs(double(got[i]) - double(want[i])));
    max_ref = std::max(max_ref, std::fabs(double(want[i])));
  }
  return got.size() == want.size() && max_err <= 1e-4 * std::max(1.0, max_ref);
}

}  // namespace

Result run_infer(const Options& opt) {
  Result r;
  const std::size_t n_batches = opt.smoke ? 1 : 4;
  const int setup_reps = opt.smoke ? 1 : 15;

  // Inputs: the only thing the seed changes.
  rpbcm::numeric::Rng rng(opt.seed);
  std::vector<Tensor> batches;
  std::vector<Tensor> images;
  for (std::size_t b = 0; b < n_batches; ++b) {
    Tensor x({kBatch, 3, kImage, kImage});
    rpbcm::tensor::fill_gaussian(x, rng);
    for (std::size_t i = 0; i < kBatch; ++i) images.push_back(slice(x, i));
    batches.push_back(std::move(x));
  }

  // Set-up: build, prune, spectra prepare, one warm-up pass per batch size.
  std::unique_ptr<Sequential> model;
  const double setup_s = median_time_s(setup_reps, [&] {
    model = build_vgg(kAlpha);
    model->forward(batches[0], false);
    model->forward(images[0], false);
  });

  // References and the one-off checks.
  std::vector<Tensor> ref;
  for (const Tensor& x : batches) ref.push_back(model->forward(x, false));
  const std::size_t out_per = ref[0].size() / kBatch;
  const Tensor staged = staged_forward(*model, batches[0], nullptr, "");
  r.check(staged.size() == ref[0].size() &&
          same_bits(staged.data(), ref[0].data(), staged.size()));
  r.check(dense_reference_matches(*model, opt.seed));

  auto check_b32 = [&](const Tensor& y, std::size_t b) {
    r.check(y.size() == ref[b].size() &&
            same_bits(y.data(), ref[b].data(), y.size()));
  };
  bool corrupt_pending = opt.corrupt;
  auto check_b1 = [&](Tensor y, std::size_t j) {
    if (corrupt_pending) {  // self-test hook: one flipped bit must be caught
      std::uint32_t bits = 0;
      std::memcpy(&bits, y.data(), sizeof bits);
      bits ^= 1U;
      std::memcpy(y.data(), &bits, sizeof bits);
      corrupt_pending = false;
    }
    const float* row = ref[j / kBatch].data() + (j % kBatch) * out_per;
    r.check(y.size() == out_per && same_bits(y.data(), row, out_per));
  };

  const double b32_s = opt.seconds * (opt.trace ? 0.5 : 0.6);
  const double b1_s = opt.seconds - b32_s;
  const std::size_t b32_min = opt.smoke ? 2 : 20;
  const std::size_t b1_min = opt.smoke ? 8 : 1000;  // p99 needs 10 beyond

  if (!opt.trace) {
    std::vector<double> t32, t1;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      const std::size_t done32 = t32.size(), done1 = t1.size();
      auto s32 = timed_loop(b32_s / kSlices, (b32_min + kSlices - 1) / kSlices,
                            [&](std::size_t i) {
                              const std::size_t b = (done32 + i) % n_batches;
                              check_b32(model->forward(batches[b], false), b);
                            });
      auto s1 = timed_loop(b1_s / kSlices, (b1_min + kSlices - 1) / kSlices,
                           [&](std::size_t i) {
                             const std::size_t j = (done1 + i) % images.size();
                             check_b1(model->forward(images[j], false), j);
                           });
      t32.insert(t32.end(), s32.begin(), s32.end());
      t1.insert(t1.end(), s1.begin(), s1.end());
    }
    const double imgs_per_s = double(kBatch) / median(t32);
    const double p50 =
        windowed_quantile(t1, 0.50, kTailWindow, kQuietWindows) * 1e3;
    const double p90 =
        windowed_quantile(t1, 0.90, kTailWindow, kQuietWindows) * 1e3;
    const double p99 = quantile(t1, 0.99) * 1e3;
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("items_per_s", imgs_per_s, "1/s");
    r.set("lat_p50_ms", p50, "ms");
    r.set("lat_p90_ms", p90, "ms");
    r.note("infer: imgs_per_s = " + fmt(imgs_per_s, 1) +
           " 1/s (batch 32, median of " + std::to_string(t32.size()) +
           " forwards)");
    r.note("infer: b1_p50_ms = " + fmt(p50) + " ms, b1_p90_ms = " + fmt(p90) +
           " ms (lower quartile over " +
           std::to_string(t1.size() / kTailWindow) + " windows of " +
           std::to_string(kTailWindow) + "), b1_p99_ms = " + fmt(p99) +
           " ms (" + std::to_string(t1.size()) + " batch-1 forwards" +
           (tail_supported(t1.size(), 0.99) ? "" : "; p99 under-sampled") +
           ")");
  } else {
    // Traced run: per phase, an untraced forward() loop (the overhead base)
    // then the staged path with a span around every call into a layer,
    // checked bitwise against forward().
    Tracer tracer;
    auto phase = [&](const std::string& prefix, double seconds,
                     std::size_t min_iters, bool b32) {
      const std::size_t count = b32 ? n_batches : images.size();
      auto input = [&](std::size_t i) -> const Tensor& {
        return b32 ? batches[i % count] : images[i % count];
      };
      auto plain = timed_loop(seconds * 0.3, min_iters / 4 + 1,
                              [&](std::size_t i) {
        model->forward(input(i), false);
      });
      timed_loop(seconds * 0.7, min_iters, [&](std::size_t i) {
        Tensor y = staged_forward(*model, input(i), &tracer, prefix);
        if (b32)
          check_b32(y, i % count);
        else
          check_b1(std::move(y), i % count);
      });
      std::vector<Span> mine;
      for (Span& s : tracer.spans())
        if (s.category == prefix) mine.push_back(std::move(s));
      const SpanBreakdown bd = breakdown(mine, "forward");
      const std::string p = prefix + ".";
      r.set(p + "forward_ms", bd.root_ms, "ms");
      r.set(p + "core.bcm_conv.rfft_ms", bd.self("core.bcm_conv.rfft"), "ms");
      r.set(p + "core.bcm_conv.emac_irfft_ms",
            bd.self("core.bcm_conv.emac_irfft"), "ms");
      for (const char* t : {"conv2d", "batchnorm", "relu", "pool", "linear"})
        r.set(p + "nn." + t + "_ms", bd.self(std::string("nn.") + t), "ms");
      // Everything no leaf layer call accounts for: the root's and the BCM
      // layer span's own time, and the (near-zero) spectra refresh.
      r.set(p + "unattributed_ms",
            bd.self("unattributed") + bd.self("core.bcm_conv") +
                bd.self("core.spectra_refresh") + bd.self("nn.other"),
            "ms");
      const double plain_ms = mean(plain) * 1e3;
      r.set(p + "trace_overhead_frac", bd.root_ms / plain_ms - 1.0, "frac");
      const OpCounts ops = count_ops(*model);
      r.set(p + "core.surviving_blocks", ops.surviving_blocks, "count");
      r.set(p + "core.emac_block_pixels", ops.emac_block_pixels, "count");
      r.set(p + "core.spectra_bytes", ops.spectra_bytes, "bytes");
      if (b32)
        r.set("core.spectra_refresh_ms", bd.self("core.spectra_refresh"),
              "ms");
      r.note("infer traced " + prefix + ": " + std::to_string(bd.roots) +
             " forwards, traced " + fmt(bd.root_ms) + " ms vs plain " +
             fmt(plain_ms) + " ms");
    };
    phase("b32", b32_s, b32_min, true);
    phase("b1", b1_s, b1_min, false);
    if (!opt.trace_out.empty()) tracer.write_chrome_trace(opt.trace_out);
  }
  r.note("infer: setup_s = " + fmt(setup_s) + " s (median of " +
         std::to_string(setup_reps) + ")");
  return r;
}

}  // namespace perfbench
