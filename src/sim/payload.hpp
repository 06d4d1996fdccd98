// Message payloads exchanged over the simulated GOSSIP network.
//
// Payload is a *value* type: a tagged union of
//
//   * empty           — "no message" (a silent pull reply, an idle action);
//   * inline words    — up to three 64-bit words stored in place, covering
//     every fixed-size message of the shipped protocols (rumor bits, votes,
//     digests, election tuples) with zero heap traffic;
//   * boxed object    — one immutable, shared heap object for the
//     variable-size messages (certificates, vote intentions).  A push to k
//     recipients or a reply served to many pullers shares one allocation,
//     exactly like the former shared_ptr<const Payload> hierarchy, but the
//     handle itself travels by value;
//   * arena-boxed     — the same immutable object, bump-allocated in the
//     engine's per-round arena (support/arena.hpp) instead of make_shared.
//     Valid for one round only: EngineCore resets its arenas at the shard
//     barrier, so producers use it for genuinely transient messages (a
//     reply consumed in this round's delivery hook) and consumers must copy
//     the value out, never retain the payload across rounds.  Every shipped
//     delivery hook copies arena objects it keeps; agents that cache a
//     payload across rounds (ProtocolAgent's intention/certificate boxes)
//     keep the shared_ptr form, and consumers retain a heap box by handle
//     (`shared_as`), or a pinned one by its object pointer, rather than by
//     copy;
//   * pinned          — a non-owning view of a heap-boxed payload (`pinned()`)
//     whose owner writes it once and keeps it, unchanged, for as long as the
//     engine it serves lives.  Copying, moving or destroying a view touches
//     no reference count, which is what makes a box served to every puller
//     of every round free to hand out.  `boxed_as` reads through the view
//     and `shared_as` turns it into a counted handle, so a consumer that
//     keeps the object past the engine's lifetime still takes ownership.
//     Lifetime rule: the owning Payload must be neither reassigned nor
//     destroyed while any view of it can still be read.  ProtocolAgent's
//     H_u and CE_u boxes are write-once members of an agent the engine
//     owns, and every payload in flight dies with the engine.  So do the
//     other views: an agent's CE_min and the L_u records it files from
//     pinned Commitment replies (core/types.hpp), which keep only the
//     object pointer (`boxed_as`) and live in agents the engine owns.
//
// This replaces the old virtual `Payload` class: the simulation hot path
// (Action buffers, pull-reply scratch, per-message delivery) now moves
// 32-byte values instead of allocating one control block per message, which
// is what lifts the single-thread n ceiling of the engine.
//
// Layout.  The union is hand-rolled rather than a std::variant: the three
// inline words are the widest member (24 B), and the discriminator, the
// 16-bit tag, and the bit size pack into the trailing 8 bytes instead of
// variant's separately padded index — sizeof(Payload) is exactly 32 (was 48),
// enforced below.  The savings is pure bandwidth: the round's delivery
// lanes, the Action buffers, and the transport scratch all stream payloads
// by value, so phases A/B/D move 1.5× less data per message.  The bit size
// is stored in 32 bits; the paper's messages are O(log^2 n) ≤ a few kilobits,
// so the public uint64_t API cannot overflow it (debug-asserted).
//
// Every payload reports its size in bits so the engine can account
// communication complexity exactly — this is how the O(log^2 n) message-size
// and O(n log^3 n) total-communication claims of the paper are measured
// rather than asserted.  The producing layer computes the bit size under the
// paper's encoding model (values in [m] cost ceil(log2 m) bits, labels
// ceil(log2 n)) and stamps it on the payload at construction.
//
// Tags.  A PayloadTag identifies the application-level message kind — what
// dynamic_cast over payload subclasses used to do, now a 16-bit compare.
// Each layer owns a tag range and, for boxed payloads, each tag maps to
// exactly one C++ type (the contract behind `boxed_as`):
//
//   0x00        untagged / reserved (sim)
//   0x10..0x1F  gossip   (gossip/rumor.hpp)
//   0x20..0x2F  core     (core/payloads.hpp)
//   0x30..0x3F  baseline (baseline/naive_election.cpp)
//   0xF0..      tests
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "support/arena.hpp"

namespace rfc::sim {

/// Application-level message-kind discriminator (see the tag-range table
/// above).  For boxed payloads a tag also pins the boxed C++ type.
using PayloadTag = std::uint16_t;

inline constexpr PayloadTag kUntaggedPayload = 0;

class Payload {
 public:
  /// Words an inline payload can carry (the widest shipped message, the
  /// naive-election (key, owner, color) tuple, needs three).
  static constexpr std::size_t kInlineWords = 3;

  /// Default-constructed payload is empty — the "no message" value.
  Payload() noexcept {}

  Payload(const Payload& other) { copy_from(other); }
  Payload(Payload&& other) noexcept { move_from(std::move(other)); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      destroy();
      copy_from(other);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(std::move(other));
    }
    return *this;
  }
  ~Payload() { destroy(); }

  bool empty() const noexcept { return kind_ == Kind::kEmpty; }
  /// True when a message is present (mirrors the old `ptr != nullptr`).
  bool has_value() const noexcept { return !empty(); }
  explicit operator bool() const noexcept { return !empty(); }

  /// Size of this payload on the wire, in bits, under the paper's encoding
  /// model; 0 when empty.
  std::uint64_t bit_size() const noexcept { return bits_; }

  /// The message-kind tag; kUntaggedPayload when empty.
  PayloadTag tag() const noexcept { return tag_; }

  /// True when the payload stores inline words (word(i) is meaningful).
  bool is_inline() const noexcept { return kind_ == Kind::kInline; }

  /// True for a boxed payload whose object is bump-allocated in a round
  /// arena — it dies at the barrier reset and must not be retained across
  /// rounds (the network layer's delayed-push path deep-copies these).
  bool is_arena_boxed() const noexcept { return kind_ == Kind::kArenaBoxed; }

  /// True for a non-owning view made by pinned().
  bool is_pinned() const noexcept { return kind_ == Kind::kPinned; }

  // --- Inline payloads ----------------------------------------------------

  /// An allocation-free payload of up to kInlineWords 64-bit words.  Signed
  /// fields round-trip via static_cast (two's complement).
  static Payload inline_words(PayloadTag tag, std::uint64_t bits,
                              std::uint64_t w0, std::uint64_t w1 = 0,
                              std::uint64_t w2 = 0) noexcept {
    Payload p;
    p.data_.words = {w0, w1, w2};
    p.set_meta(Kind::kInline, tag, bits);
    return p;
  }

  /// Word `i` of an inline payload; 0 for boxed/empty payloads or i out of
  /// range.  Callers gate on tag(), which pins the word layout.
  std::uint64_t word(std::size_t i) const noexcept {
    return kind_ == Kind::kInline && i < kInlineWords ? data_.words[i] : 0;
  }

  // --- Boxed payloads -----------------------------------------------------

  /// Wraps an existing immutable shared object.  `tag` must be the unique
  /// tag registered for type T.
  template <typename T>
  static Payload boxed(PayloadTag tag, std::uint64_t bits,
                       std::shared_ptr<const T> object) noexcept {
    Payload p;
    ::new (&p.data_.object) std::shared_ptr<const void>(std::move(object));
    p.set_meta(Kind::kBoxed, tag, bits);
    return p;
  }

  /// Constructs the boxed object in place (one allocation, shared by every
  /// copy of the returned payload).
  template <typename T, typename... Args>
  static Payload make_boxed(PayloadTag tag, std::uint64_t bits,
                            Args&&... args) {
    return boxed<T>(tag, bits,
                    std::make_shared<const T>(std::forward<Args>(args)...));
  }

  /// Constructs the boxed object in `arena` (pointer bump, no control
  /// block; the arena owns destruction at its round-barrier reset).  Falls
  /// back to make_boxed when `arena` is null — producers route through the
  /// Context's arena unconditionally and callers outside an engine round
  /// (tests, the transport driver) simply get the shared form.
  template <typename T, typename... Args>
  static Payload make_boxed_in(rfc::support::Arena* arena, PayloadTag tag,
                               std::uint64_t bits, Args&&... args) {
    if (arena == nullptr) {
      return make_boxed<T>(tag, bits, std::forward<Args>(args)...);
    }
    Payload p;
    p.data_.arena_object = arena->create<T>(std::forward<Args>(args)...);
    p.set_meta(Kind::kArenaBoxed, tag, bits);
    return p;
  }

  /// The boxed object, or null unless this payload is boxed AND carries
  /// `expected_tag`.  Replaces dynamic_cast over payload subclasses; safe
  /// because a tag maps to exactly one boxed type (see header comment).
  template <typename T>
  const T* boxed_as(PayloadTag expected_tag) const noexcept {
    if (tag_ != expected_tag) return nullptr;
    switch (kind_) {
      case Kind::kBoxed:
        return static_cast<const T*>(data_.object.get());
      case Kind::kArenaBoxed:
        return static_cast<const T*>(data_.arena_object);
      case Kind::kPinned:
        return static_cast<const T*>(data_.view.object);
      default:
        return nullptr;
    }
  }

  /// A shared handle to the boxed object, or null unless this payload is
  /// heap-boxed (directly or through a pinned view) AND carries
  /// `expected_tag`.  Lets a consumer retain the immutable object across
  /// rounds without copying it; an arena-boxed object has no owner to share
  /// and yields null (copy it out instead).
  template <typename T>
  std::shared_ptr<const T> shared_as(PayloadTag expected_tag) const noexcept {
    const Payload& box = kind_ == Kind::kPinned ? *data_.view.owner : *this;
    if (tag_ != expected_tag || box.kind_ != Kind::kBoxed) return nullptr;
    return std::static_pointer_cast<const T>(box.data_.object);
  }

  // --- Pinned views -------------------------------------------------------

  /// A non-owning view of this heap box, or a plain copy of any other
  /// payload (inline, arena-boxed, empty or already pinned), so a view
  /// always points at an owning box, never at another view.  The caller
  /// promises the lifetime rule in the header comment: *this is neither
  /// reassigned nor destroyed while the view can be read.
  Payload pinned() const& noexcept {
    if (kind_ != Kind::kBoxed) return *this;
    Payload p;
    p.data_.view = {data_.object.get(), this};
    p.set_meta(Kind::kPinned, tag_, bits_);
    return p;
  }
  /// A view of a temporary would dangle at the end of the statement.
  Payload pinned() const&& = delete;

 private:
  enum class Kind : std::uint8_t {
    kEmpty, kInline, kBoxed, kArenaBoxed, kPinned
  };

  /// A pinned view: the boxed object, read directly, and the owning
  /// payload, read only by shared_as.
  struct View {
    const void* object;
    const Payload* owner;
  };

  /// The value storage.  Only `object` has a non-trivial lifetime; it is
  /// placement-constructed by the boxed paths and destroyed by destroy().
  union Data {
    std::array<std::uint64_t, kInlineWords> words;  // 24 B, the widest.
    std::shared_ptr<const void> object;             // kBoxed only.
    const void* arena_object;  ///< Arena-owned; dies at the barrier reset.
    View view;                 ///< kPinned only; owns nothing.
    Data() noexcept : arena_object(nullptr) {}
    ~Data() {}  // The discriminator lives outside; Payload destroys.
  };

  void set_meta(Kind kind, PayloadTag tag, std::uint64_t bits) noexcept {
    assert(bits <= 0xFFFFFFFFull);  // O(log^2 n) bits in practice.
    kind_ = kind;
    tag_ = tag;
    bits_ = static_cast<std::uint32_t>(bits);
  }

  void destroy() noexcept {
    if (kind_ == Kind::kBoxed) data_.object.~shared_ptr();
  }

  /// Precondition: *this holds no live shared_ptr (fresh or just destroyed).
  void copy_from(const Payload& other) {
    switch (other.kind_) {
      case Kind::kInline:
        data_.words = other.data_.words;
        break;
      case Kind::kBoxed:
        ::new (&data_.object) std::shared_ptr<const void>(other.data_.object);
        break;
      case Kind::kArenaBoxed:
        data_.arena_object = other.data_.arena_object;
        break;
      case Kind::kPinned:
        data_.view = other.data_.view;
        break;
      case Kind::kEmpty:
        break;
    }
    kind_ = other.kind_;
    tag_ = other.tag_;
    bits_ = other.bits_;
  }

  /// Precondition as copy_from.  The source is left *empty* (stronger than
  /// variant's valid-but-unspecified): no shipped code reads a moved-from
  /// payload, and empty is the cheapest state to leave behind.
  void move_from(Payload&& other) noexcept {
    switch (other.kind_) {
      case Kind::kInline:
        data_.words = other.data_.words;
        break;
      case Kind::kBoxed:
        ::new (&data_.object)
            std::shared_ptr<const void>(std::move(other.data_.object));
        other.data_.object.~shared_ptr();
        break;
      case Kind::kArenaBoxed:
        data_.arena_object = other.data_.arena_object;
        break;
      case Kind::kPinned:
        data_.view = other.data_.view;
        break;
      case Kind::kEmpty:
        break;
    }
    kind_ = other.kind_;
    tag_ = other.tag_;
    bits_ = other.bits_;
    other.kind_ = Kind::kEmpty;
    other.tag_ = kUntaggedPayload;
    other.bits_ = 0;
  }

  Data data_;                           // 24 B
  std::uint32_t bits_ = 0;              // wire size in bits (see bit_size()).
  PayloadTag tag_ = kUntaggedPayload;   // 2 B
  Kind kind_ = Kind::kEmpty;            // 1 B (+1 padding)
};

// The whole point of the hand-rolled union: a payload is one half cache
// line, and the delivery queues stream exactly 40-byte push entries.
static_assert(sizeof(Payload) <= 32, "Payload must stay within 32 bytes");

}  // namespace rfc::sim
