// Workload `train`: the same VGG proxy unpruned (alpha = 0, Algorithm-1
// Stage 1). Each step is forward(train=true), SoftmaxCrossEntropy,
// backward and Sgd::step on a batch-32 SyntheticImageDataset draw, so every
// step invalidates the cached weight spectra. serve and hw are bypassed.
#include <cmath>

#include "common.hpp"
#include "core/bcm_conv.hpp"
#include "core/pruning.hpp"
#include "nn/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "numeric/random.hpp"

namespace perfbench {
namespace {

using rpbcm::nn::Sequential;
using rpbcm::tensor::Tensor;

constexpr std::size_t kBatch = 32;

struct Trainee {
  std::unique_ptr<Sequential> model;
  std::vector<rpbcm::nn::Param*> params;
  std::vector<rpbcm::core::BcmConv2d*> bcm;
  std::unique_ptr<rpbcm::nn::Sgd> sgd;
  rpbcm::nn::SoftmaxCrossEntropy loss;
};

std::unique_ptr<Trainee> make_trainee() {
  auto t = std::make_unique<Trainee>();
  t->model = build_vgg(0.0F);
  t->params = t->model->params();
  t->bcm = rpbcm::core::BcmLayerSet::collect(*t->model).convs();
  t->sgd = std::make_unique<rpbcm::nn::Sgd>(0.01F, 0.9F, 5e-4F);
  return t;
}

/// One plain training step, as nn::Trainer runs it; returns the loss.
float step(Trainee& t, const rpbcm::nn::Batch& b) {
  rpbcm::nn::zero_grads(t.params);
  const Tensor logits = t.model->forward(b.x, true);
  const float loss = t.loss.forward(logits, b.y);
  t.model->backward(t.loss.backward());
  t.sgd->step(t.params);
  return loss;
}

/// The same step with a span around every call into a layer. The weight
/// spectra refresh is pulled out of the first BCM forward by calling
/// prepare_inference() on every BcmConv2d first; forward() then hits the
/// fresh cache. Same arithmetic as step().
float traced_step(Trainee& t, const rpbcm::nn::Batch& b, Tracer& tr) {
  ScopedSpan root(tr, "train", "step", 0);
  {
    ScopedSpan s(tr, "train", "core.spectra_refresh", root.id());
    for (auto* conv : t.bcm) conv->prepare_inference();
  }
  Tensor cur;
  {
    ScopedSpan fwd(tr, "train", "forward", root.id());
    rpbcm::nn::zero_grads(t.params);
    cur = b.x;
    for (std::size_t i = 0; i < t.model->size(); ++i) {
      rpbcm::nn::Layer& layer = t.model->layer(i);
      ScopedSpan s(tr, "train", "fwd." + layer_kind(layer), fwd.id());
      cur = layer.forward(cur, true);
    }
  }
  float loss = 0.0F;
  {
    ScopedSpan s(tr, "train", "loss", root.id());
    loss = t.loss.forward(cur, b.y);
    cur = t.loss.backward();
  }
  {
    ScopedSpan bwd(tr, "train", "backward", root.id());
    for (std::size_t i = t.model->size(); i-- > 0;) {
      rpbcm::nn::Layer& layer = t.model->layer(i);
      ScopedSpan s(tr, "train", "bwd." + layer_kind(layer), bwd.id());
      cur = layer.backward(cur);
    }
  }
  {
    ScopedSpan s(tr, "train", "sgd", root.id());
    t.sgd->step(t.params);
  }
  return loss;
}

}  // namespace

Result run_train(const Options& opt) {
  Result r;
  const int setup_reps = opt.smoke ? 1 : 15;
  // p90 of the step time needs 100 steps (ten beyond it).
  const std::size_t min_steps = opt.smoke ? 3 : 100;

  rpbcm::nn::SyntheticSpec spec;
  spec.train = opt.smoke ? 64 : 512;
  spec.test = kBatch;
  spec.seed = opt.seed;
  const rpbcm::nn::SyntheticImageDataset data(spec);
  rpbcm::numeric::Rng rng(opt.seed ^ 0x7a11ULL);
  const rpbcm::nn::Batch warm = data.test_batch(0, kBatch);

  // Set-up: build, optimizer, one warm-up step.
  std::unique_ptr<Trainee> t;
  const double setup_s = median_time_s(setup_reps, [&] {
    t = make_trainee();
    step(*t, warm);
  });

  bool corrupt_pending = opt.corrupt;
  auto check_loss = [&](float loss) {
    if (corrupt_pending) {  // self-test hook: a NaN loss must be caught
      loss = std::nanf("");
      corrupt_pending = false;
    }
    r.check(std::isfinite(loss));
  };

  if (!opt.trace) {
    auto times = timed_loop(opt.seconds, min_steps, [&](std::size_t) {
      const rpbcm::nn::Batch b = data.train_batch(rng, kBatch);
      const auto t0 = Clock::now();
      check_loss(step(*t, b));
      return seconds_between(t0, Clock::now());
    });
    const double imgs_per_s = double(kBatch) / median(times);
    const double p50 = median(times) * 1e3;
    const double p90 = quantile(times, 0.90) * 1e3;
    r.set("setup_s", setup_s, "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.set("items_per_s", imgs_per_s, "1/s");
    r.set("lat_p50_ms", p50, "ms");
    r.set("lat_p90_ms", p90, "ms");
    r.note("train: imgs_per_s = " + fmt(imgs_per_s, 1) +
           " 1/s (batch 32, median of " + std::to_string(times.size()) +
           " steps); step p50 = " + fmt(p50) + " ms, p90 = " + fmt(p90) +
           " ms" +
           (tail_supported(times.size(), 0.90) ? "" : " (under-sampled)"));
  } else {
    Tracer tracer;
    timed_loop(opt.seconds, min_steps, [&](std::size_t) {
      const rpbcm::nn::Batch b = data.train_batch(rng, kBatch);
      const auto t0 = Clock::now();
      check_loss(traced_step(*t, b, tracer));
      return seconds_between(t0, Clock::now());
    });
    const SpanBreakdown bd = breakdown(tracer.spans(), "step");
    r.set("train.step_ms", bd.root_ms, "ms");
    r.set("train.forward_ms", bd.total("forward"), "ms");
    r.set("train.loss_ms", bd.total("loss"), "ms");
    r.set("train.backward_ms", bd.total("backward"), "ms");
    r.set("train.sgd_ms", bd.total("sgd"), "ms");
    r.set("core.spectra_refresh_ms", bd.total("core.spectra_refresh"), "ms");
    r.set("train.unattributed_ms",
          bd.self("unattributed") + bd.self("forward") + bd.self("backward") +
              bd.self("fwd.nn.other") + bd.self("bwd.nn.other"),
          "ms");
    for (const char* d : {"fwd.", "bwd."}) {
      r.set(std::string(d) + "core.bcm_conv_ms",
            bd.self(std::string(d) + "core.bcm_conv"), "ms");
      for (const char* k : {"conv2d", "batchnorm", "relu", "pool", "linear"}) {
        const std::string n = std::string(d) + "nn." + k;
        r.set(n + "_ms", bd.self(n), "ms");
      }
    }
    r.note("train traced: " + std::to_string(bd.roots) + " steps, " +
           fmt(bd.root_ms) + " ms per step");
    if (!opt.trace_out.empty()) tracer.write_chrome_trace(opt.trace_out);
  }
  r.note("train: setup_s = " + fmt(setup_s) + " s (median of " +
         std::to_string(setup_reps) + ")");
  return r;
}

}  // namespace perfbench
