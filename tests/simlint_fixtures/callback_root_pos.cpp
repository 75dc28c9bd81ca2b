// Fixture: a protocol step the engine calls as an event through
// sim::Callback::method reads a process-global. It is no Task or CoTask,
// yet it runs as an event handler, so the cross-rank pass must root at
// it and anchor the finding at the read.

namespace fixture {

double g_rate = 1.0;

struct Step {
  sim::Engine* engine;
  double scale = 0.0;
  void tick();
};

void Step::tick() {
  scale = g_rate;  // expect-lint: cross-rank-shared-mutable
}

void arm(Step& step) {
  step.engine->schedule_after(1.0, sim::Callback::method<&Step::tick>(&step));
}

}  // namespace fixture
