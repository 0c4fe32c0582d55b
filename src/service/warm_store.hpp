// Shared, refcounted, cross-request warm store: a memo of finished grid
// slices at service scope.
//
// Within one request, the ctmc backend already transfers warm-start
// deviations between grid points (eval/backends.cpp). ACROSS requests that
// transfer would be visible — iterations/warm_parent land in the CSV, so
// seeding one request's solves from another's would break the service's
// byte-identity contract with the one-shot CLI. What CAN be shared without
// any observable difference is the finished work itself: the store
// memoizes whole deterministic (backend, variant-slice) GridOutcomes keyed
// by an exhaustive scenario signature (warm_store.cpp). Since every slice
// is a pure function of its signature (the determinism contract), a cached
// outcome is bit-identical to recomputing it — concurrent requests for the
// same scenario collapse into one evaluation plus copies.
//
// Concurrency protocol (leader/follower with promotion):
//   acquire(sig) -> Ticket holding one ref.
//     - first arrival becomes the LEADER: evaluates, then publish() or
//       abandon() (e.g. its request was cancelled mid-slice).
//     - later arrivals are FOLLOWERS: wait() blocks until the value is
//       published (returns a copy) or the leader abandoned with no value —
//       then ONE waiter is promoted (wait() returns nullopt and the ticket
//       turns leader), so an abandoned slice never strands its waiters.
//   Dropping the Ticket releases the ref; a leader that neither published
//   nor abandoned abandons implicitly (exception safety).
//
// Completed entries stay cached for future requests; once the store
// exceeds its capacity, idle entries (ready, zero refs) are evicted oldest
// first. active_refs() must drain to zero when no request is in flight —
// the concurrency test pins that.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "eval/evaluator.hpp"

namespace gprsim::service {

class WarmStore {
    struct Entry;

public:
    /// `capacity`: idle (ready, unreferenced) entries retained for reuse.
    explicit WarmStore(std::size_t capacity = 64);
    ~WarmStore();

    WarmStore(const WarmStore&) = delete;
    WarmStore& operator=(const WarmStore&) = delete;

    /// RAII reference to one store entry; movable, not copyable.
    class Ticket {
    public:
        Ticket() = default;
        Ticket(Ticket&& other) noexcept;
        Ticket& operator=(Ticket&& other) noexcept;
        ~Ticket();

        Ticket(const Ticket&) = delete;
        Ticket& operator=(const Ticket&) = delete;

        /// Whether this ticket must compute the slice (initial leader or
        /// promoted follower).
        bool leader() const { return leader_; }

        /// Follower: blocks until the outcome is published (returns a
        /// copy) or this ticket is promoted to leader (returns nullopt;
        /// leader() turns true). Calling as leader is a no-op nullopt.
        std::optional<eval::GridOutcome> wait();

        /// Leader: stores the computed outcome and wakes every follower.
        void publish(const eval::GridOutcome& outcome);

        /// Leader: give up without a value (cancelled request). One waiting
        /// follower is promoted; with no waiters the entry empties and the
        /// next acquire starts a fresh leader.
        void abandon();

    private:
        friend class WarmStore;
        Ticket(WarmStore* store, Entry* entry, bool leader)
            : store_(store), entry_(entry), leader_(leader) {}
        void release();

        WarmStore* store_ = nullptr;
        Entry* entry_ = nullptr;
        bool leader_ = false;
        bool settled_ = false;  ///< leader published or abandoned
    };

    /// Acquires a reference to the entry for `signature`. `hit` reports
    /// whether the work was already available or in flight (a published
    /// value OR a join onto a computing leader) — the number the rolling
    /// stats expose as the cache hit rate.
    Ticket acquire(const std::string& signature, bool& hit);

    /// Outstanding ticket references across all entries (0 = drained).
    std::size_t active_refs() const;
    /// Entries currently in the table (ready + in-flight).
    std::size_t entries() const;

private:
    struct Entry {
        std::string signature;
        int refs = 0;
        bool computing = false;  ///< a leader is (or will be) evaluating
        bool ready = false;
        std::optional<eval::GridOutcome> outcome;
        std::uint64_t last_use = 0;
        std::condition_variable cv;
    };

    void evict_idle_locked();

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::uint64_t clock_ = 0;  ///< monotonic use counter for eviction order
    std::size_t total_refs_ = 0;
    // node-stable map: tickets hold Entry* across unlocks.
    std::unordered_map<std::string, Entry> entries_;
};

/// The exhaustive slice signature: backend name, every core::Parameters
/// field (doubles in hexfloat so distinct bit patterns never collide), the
/// full knob blocks, the rate grid, and the substream grid offset. Two
/// slices with equal signatures are guaranteed to produce bit-identical
/// GridOutcomes under the determinism contract.
std::string slice_signature(const std::string& backend, const eval::ScenarioQuery& query,
                            const std::vector<double>& rates, std::uint64_t grid_offset);

}  // namespace gprsim::service
