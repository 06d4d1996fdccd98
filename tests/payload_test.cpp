// sim::Payload's pinned kind: a non-owning view of a write-once heap box
// that copies, moves and dies without touching the box's reference count,
// reads through to the object, and never points at another view.
#include "sim/payload.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/certificate.hpp"
#include "core/payloads.hpp"
#include "sim/network.hpp"
#include "support/arena.hpp"

namespace rfc::sim {
namespace {

constexpr PayloadTag kBoxTag = 0xF1;
constexpr PayloadTag kOtherTag = 0xF2;

struct Box {
  int value = 0;
};

Payload heap_box(int value) {
  return Payload::make_boxed<Box>(kBoxTag, 40, Box{value});
}

/// Counted owners of `box`'s object, not counting the probe itself.
long owners(const Payload& box) {
  return box.shared_as<Box>(kBoxTag).use_count() - 1;
}

static_assert(sizeof(Payload) <= 32, "Payload must stay within 32 bytes");

TEST(PinnedPayload, CopyMoveAndDestroyLeaveTheCountAlone) {
  const Payload box = heap_box(7);
  ASSERT_EQ(owners(box), 1);
  {
    Payload view = box.pinned();
    EXPECT_EQ(owners(box), 1);
    Payload copy = view;
    Payload moved = std::move(copy);
    Payload assigned;
    assigned = moved;
    assigned = std::move(view);
    EXPECT_EQ(owners(box), 1);
    EXPECT_TRUE(moved.is_pinned());
    EXPECT_TRUE(assigned.is_pinned());
    EXPECT_EQ(moved.tag(), kBoxTag);
    EXPECT_EQ(moved.bit_size(), 40u);
  }
  EXPECT_EQ(owners(box), 1);
}

TEST(PinnedPayload, BoxedAsAndSharedAsReadThroughTheView) {
  const Payload box = heap_box(11);
  const Payload view = box.pinned();
  ASSERT_NE(view.boxed_as<Box>(kBoxTag), nullptr);
  EXPECT_EQ(view.boxed_as<Box>(kBoxTag), box.boxed_as<Box>(kBoxTag));
  EXPECT_EQ(view.boxed_as<Box>(kBoxTag)->value, 11);
  EXPECT_EQ(view.boxed_as<Box>(kOtherTag), nullptr);
  EXPECT_EQ(view.shared_as<Box>(kOtherTag), nullptr);

  // shared_as turns the view into a counted handle on the owner's object.
  const std::shared_ptr<const Box> handle = view.shared_as<Box>(kBoxTag);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle.get(), box.boxed_as<Box>(kBoxTag));
  EXPECT_EQ(owners(box), 2);
}

TEST(PinnedPayload, PinningAnythingButAHeapBoxCopiesIt) {
  const Payload empty;
  EXPECT_TRUE(empty.pinned().empty());

  const Payload words = Payload::inline_words(kBoxTag, 12, 42, 43);
  const Payload pinned_words = words.pinned();
  EXPECT_TRUE(pinned_words.is_inline());
  EXPECT_EQ(pinned_words.word(0), 42u);
  EXPECT_EQ(pinned_words.word(1), 43u);
  EXPECT_EQ(pinned_words.bit_size(), 12u);

  support::Arena arena;
  const Payload in_arena = Payload::make_boxed_in<Box>(&arena, kBoxTag, 8, 3);
  const Payload pinned_arena = in_arena.pinned();
  EXPECT_TRUE(pinned_arena.is_arena_boxed());
  EXPECT_FALSE(pinned_arena.is_pinned());
  EXPECT_EQ(pinned_arena.boxed_as<Box>(kBoxTag),
            in_arena.boxed_as<Box>(kBoxTag));
}

TEST(PinnedPayload, AViewOfAViewPointsAtTheOwningBox) {
  const Payload box = heap_box(5);
  Payload second;
  {
    const Payload first = box.pinned();
    second = first.pinned();
  }
  // `first` is gone; `second` must read the box, not the dead view.
  EXPECT_TRUE(second.is_pinned());
  EXPECT_EQ(second.boxed_as<Box>(kBoxTag), box.boxed_as<Box>(kBoxTag));
  const std::shared_ptr<const Box> handle = second.shared_as<Box>(kBoxTag);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->value, 5);
  EXPECT_EQ(owners(box), 2);
}

TEST(PinnedPayload, CloneKeepsTheViewCorruptMakesAFreshBox) {
  const core::ProtocolParams params = core::ProtocolParams::make(64);
  core::Certificate certificate;
  certificate.k = 12345;
  certificate.color = 1;
  certificate.owner = 9;
  const Payload box = core::make_certificate_payload(certificate, params);
  const Payload view = box.pinned();
  const core::Certificate* boxed = core::certificate_in(box);
  ASSERT_NE(boxed, nullptr);

  // A view already outlives the round, so the delayed-push clone is the
  // view itself.
  const Payload cloned = clone_payload(view);
  EXPECT_TRUE(cloned.is_pinned());
  EXPECT_EQ(core::certificate_in(cloned), boxed);

  // A tampered copy owns a new heap box and leaves the original intact.
  const Payload tampered = corrupt_payload(view, 3);
  EXPECT_FALSE(tampered.is_pinned());
  EXPECT_FALSE(tampered.is_arena_boxed());
  const core::Certificate* flipped = core::certificate_in(tampered);
  ASSERT_NE(flipped, nullptr);
  EXPECT_NE(flipped, boxed);
  EXPECT_NE(flipped->k, boxed->k);
  EXPECT_EQ(boxed->k, 12345u);
  EXPECT_NE(tampered.shared_as<core::Certificate>(core::kCertificatePayloadTag),
            nullptr);
  EXPECT_EQ(tampered.bit_size(), box.bit_size());
}

}  // namespace
}  // namespace rfc::sim
