// Clean twin: the same callback step, but it reads only its own record.

namespace fixture {

struct Step {
  sim::Engine* engine;
  double rate = 1.0;
  double scale = 0.0;
  void tick();
};

void Step::tick() { scale = rate; }

void arm(Step& step) {
  step.engine->schedule_after(1.0, sim::Callback::method<&Step::tick>(&step));
}

}  // namespace fixture
