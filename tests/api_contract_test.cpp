// API-contract tests: the runtime must reject malformed architectures with
// clear errors (port type/polarity mismatches, duplicate ports, missing
// ports) rather than silently mis-wiring — paper §2.1's "a subscription is
// allowed only if..." style rules, enforced at the C++ API boundary.

#include <gtest/gtest.h>

#include "kompics/kompics.hpp"

namespace kompics::test {
namespace {

class EvA : public Event {
  KOMPICS_EVENT(EvA, Event);
};
class EvB : public Event {
  KOMPICS_EVENT(EvB, Event);
};

class PortA : public PortType {
 public:
  PortA() {
    set_name("PortA");
    negative<EvA>();
    positive<EvA>();
  }
};

class PortB : public PortType {
 public:
  PortB() {
    set_name("PortB");
    negative<EvB>();
  }
};

class ProviderA : public ComponentDefinition {
 public:
  Negative<PortA> a = provide<PortA>();
};
class RequirerA : public ComponentDefinition {
 public:
  Positive<PortA> a = require<PortA>();
};
class RequirerB : public ComponentDefinition {
 public:
  Positive<PortB> b = require<PortB>();
};

class Empty : public ComponentDefinition {};

TEST(ApiContract, ConnectRejectsTypeMismatch) {
  class Main : public ComponentDefinition {
   public:
    Main() {
      auto p = create<ProviderA>();
      auto r = create<RequirerB>();
      // Untyped connect with mismatched port types must throw.
      EXPECT_THROW(
          connect(p.core()->find_port(std::type_index(typeid(PortA)), true)->outside.get(),
                  r.core()->find_port(std::type_index(typeid(PortB)), false)->outside.get()),
          std::logic_error);
    }
  };
  auto rt = Runtime::threaded(Config{}, 1, 1);
  rt->bootstrap<Main>();
  rt->await_quiescence();
}

TEST(ApiContract, ConnectRejectsSamePolarity) {
  class Main : public ComponentDefinition {
   public:
    Main() {
      auto p1 = create<ProviderA>();
      auto p2 = create<ProviderA>();
      EXPECT_THROW(
          connect(p1.core()->find_port(std::type_index(typeid(PortA)), true)->outside.get(),
                  p2.core()->find_port(std::type_index(typeid(PortA)), true)->outside.get()),
          std::logic_error);
    }
  };
  auto rt = Runtime::threaded(Config{}, 1, 1);
  rt->bootstrap<Main>();
  rt->await_quiescence();
}

TEST(ApiContract, DuplicatePortDeclarationThrows) {
  class Doubled : public ComponentDefinition {
   public:
    Doubled() {
      provide<PortA>();
      EXPECT_THROW(provide<PortA>(), std::logic_error);
      // A required port of the same type is a different (type, kind) and OK.
      EXPECT_NO_THROW(require<PortA>());
    }
  };
  class Main : public ComponentDefinition {
   public:
    Main() { create<Doubled>(); }
  };
  auto rt = Runtime::threaded(Config{}, 1, 1);
  rt->bootstrap<Main>();
  rt->await_quiescence();
}

TEST(ApiContract, MissingPortAccessThrows) {
  class Main : public ComponentDefinition {
   public:
    Main() { child = create<Empty>(); }
    Component child;
  };
  auto rt = Runtime::threaded(Config{}, 1, 1);
  auto main = rt->bootstrap<Main>();
  rt->await_quiescence();
  EXPECT_THROW(main.definition_as<Main>().child.provided<PortA>(), std::logic_error);
  EXPECT_THROW(main.definition_as<Main>().child.required<PortA>(), std::logic_error);
}

TEST(ApiContract, DefinitionTypeMismatchThrows) {
  class Main : public ComponentDefinition {
   public:
    Main() { child = create<Empty>(); }
    Component child;
  };
  auto rt = Runtime::threaded(Config{}, 1, 1);
  auto main = rt->bootstrap<Main>();
  rt->await_quiescence();
  EXPECT_THROW(main.definition_as<Main>().child.definition_as<ProviderA>(), std::logic_error);
  EXPECT_NO_THROW(main.definition_as<Main>().child.definition_as<Empty>());
}

TEST(ApiContract, ComponentDefinitionOutsideRuntimeThrows) {
  EXPECT_THROW(ProviderA{}, std::logic_error);
}

TEST(ApiContract, TriggerNullEventThrows) {
  class Main : public ComponentDefinition {
   public:
    Main() { child = create<ProviderA>(); }
    Component child;
  };
  auto rt = Runtime::threaded(Config{}, 1, 1);
  auto main = rt->bootstrap<Main>();
  rt->await_quiescence();
  EXPECT_THROW(main.definition_as<Main>().child.provided<PortA>().core->trigger(nullptr),
               std::invalid_argument);
}

TEST(ApiContract, ConfigTypedAccess) {
  Config cfg;
  cfg.set("name", std::string("cats"));
  cfg.set("workers", std::int64_t{8});
  cfg.set("ratio", 0.5);
  cfg.set("verbose", true);
  EXPECT_EQ(cfg.get<std::string>("name"), "cats");
  EXPECT_EQ(cfg.get<std::int64_t>("workers"), 8);
  EXPECT_EQ(cfg.get<double>("ratio"), 0.5);
  EXPECT_EQ(cfg.get<bool>("verbose"), true);
  EXPECT_FALSE(cfg.get<std::int64_t>("name").has_value()) << "type mismatch yields nullopt";
  EXPECT_FALSE(cfg.get<bool>("missing").has_value());
  EXPECT_EQ(cfg.get_or<std::int64_t>("missing", 42), 42);
  EXPECT_THROW(cfg.require_value<bool>("missing"), std::out_of_range);
  EXPECT_TRUE(cfg.contains("ratio"));
}

}  // namespace
}  // namespace kompics::test
