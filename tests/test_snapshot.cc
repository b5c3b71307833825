/**
 * @file
 * Golden suite for versioned snapshots and bit-identical resume
 * (docs/RESILIENCE.md, "Checkpoint & replay").
 *
 * The contract under test: a run that checkpoints at cycle N and
 * resumes — in the same system, or restored into a freshly built one,
 * in either engine mode, with the fast tier on or off, under active
 * fault injection — finishes with exactly the cycle count, stats JSON
 * (including the sampled time series), memory image and trace stream
 * of the uninterrupted run. Plus the container-level guarantees
 * (truncation / bit flips / wrong configuration are rejected before
 * any component state is touched) and the serve-layer guarantees
 * (crash + restart over a checkpoint directory delivers every job
 * exactly once; a migrated shard is byte-identical to an unmigrated
 * one).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/error.hh"
#include "kernels/kernel_set.hh"
#include "serve/server.hh"
#include "snap/snapshot.hh"

#include "golden.hh"

using namespace opac;
using namespace opac::test::golden;
using copro::CoprocConfig;
using copro::Coprocessor;
using sim::EngineMode;

namespace
{

const EngineMode kAllModes[] = {EngineMode::Spin, EngineMode::Skip};

std::string
tmpPath(const char *name)
{
    return std::string("snapshot_test_") + name;
}

/**
 * Where the resume tests stop @p r: halfway through, and for conv2d
 * the first cycle from there that falls inside a deferred burst
 * window, so the stop materializes a window prefix.
 */
Cycle
stopFor(const RunSpec &r)
{
    const Cycle half = run(r.reference()).cycles / 2;
    return r.load == Workload::Conv ? stopInsideBurst(r, half) : half;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------

TEST(SnapContainer, PrimitivesRoundTrip)
{
    snap::Writer w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i32(-42);
    w.i64(-1234567890123ll);
    w.b(true);
    w.f64(-0.1);
    w.str("hello snapshot");

    snap::Reader r(w.buffer(), "test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123ll);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.f64(), -0.1);
    EXPECT_EQ(r.str(), "hello snapshot");
    EXPECT_NO_THROW(r.expectEnd());
}

TEST(SnapContainer, ReaderIsBoundsChecked)
{
    snap::Writer w;
    w.u32(7);
    snap::Reader r(w.buffer(), "test");
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u32(), SnapshotError);
}

TEST(SnapContainer, ExpectEndCatchesTrailingBytes)
{
    snap::Writer w;
    w.u32(7);
    w.u8(1);
    snap::Reader r(w.buffer(), "test");
    r.u32();
    EXPECT_THROW(r.expectEnd(), SnapshotError);
}

TEST(SnapContainer, EncodeDecodeRoundTrip)
{
    snap::Snapshot s;
    s.cycle = 12345;
    s.fingerprint = 0xfeedfacecafebeefull;
    s.add("alpha", 2, "payload-a");
    s.add("beta", 1, std::string("\x00\x01\x02", 3));
    snap::Snapshot got = snap::Snapshot::decode(s.encode(), "test");
    EXPECT_EQ(got.cycle, s.cycle);
    EXPECT_EQ(got.fingerprint, s.fingerprint);
    ASSERT_EQ(got.sections().size(), 2u);
    EXPECT_EQ(got.require("alpha").version, 2u);
    EXPECT_EQ(got.require("alpha").payload, "payload-a");
    EXPECT_EQ(got.require("beta").payload.size(), 3u);
    EXPECT_EQ(got.find("gamma"), nullptr);
    EXPECT_THROW(got.require("gamma"), SnapshotError);
}

TEST(SnapContainer, CorruptFilesAreRejected)
{
    snap::Snapshot s;
    s.cycle = 99;
    s.add("comp.x", 1, "some component payload bytes");
    std::string bytes = s.encode();

    // Truncation at every prefix length must throw, never crash or
    // hand garbage to a component.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::string cut = bytes.substr(0, len);
        EXPECT_THROW(snap::Snapshot::decode(cut, "trunc"),
                     SnapshotError)
            << "prefix " << len;
    }
    // Any single bit flip breaks the checksum (or the framing).
    for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
        std::string bad = bytes;
        bad[pos] = char(bad[pos] ^ 0x10);
        EXPECT_THROW(snap::Snapshot::decode(bad, "flip"),
                     SnapshotError)
            << "flip at " << pos;
    }
}

TEST(SnapContainer, WriteFileIsAtomicAndReadable)
{
    const std::string dir = tmpPath("dir");
    const std::string path = dir + "/nested/a.snap";
    snap::Snapshot s;
    s.cycle = 7;
    s.add("x", 1, "abc");
    // Missing directories are created, not silently dropped.
    s.writeFile(path);
    snap::Snapshot got = snap::Snapshot::readFile(path);
    EXPECT_EQ(got.cycle, 7u);
    EXPECT_EQ(got.require("x").payload, "abc");
    EXPECT_THROW(snap::Snapshot::readFile(dir + "/absent.snap"),
                 SnapshotError);
}

// ---------------------------------------------------------------------
// Whole-machine golden identity
// ---------------------------------------------------------------------

TEST(SnapshotResume, PauseAndContinueIsByteIdentical)
{
    // runUntil(N) + run() in the same system must equal run(), for
    // both engine modes and fast-tier settings. For conv2d, N falls
    // inside a deferred burst window, so the stop materializes a
    // window prefix.
    for (Workload w : {Workload::MatUpdate, Workload::Conv}) {
        const Cycle stop = stopFor(RunSpec(w));
        ASSERT_NE(stop, 0u);
        for (EngineMode mode : kAllModes) {
            for (bool fast : {true, false}) {
                const RunSpec r = RunSpec(w).in(mode, fast).stoppedAt(
                    stop, Resume::Continue);
                EXPECT_EQ(check(r).resumedAt, stop) << r.name();
            }
        }
    }
}

TEST(SnapshotResume, RestoredSystemFinishesByteIdentical)
{
    // Snapshot at N, restore into a freshly built machine (as another
    // process would), finish there: cycles, stats JSON (with the
    // sampler series) and the memory image all match the
    // uninterrupted run. Resume may also switch engine modes and the
    // fast tier. For conv2d, N falls inside a deferred burst window.
    for (Workload w : {Workload::MatUpdate, Workload::Conv}) {
        const Cycle stop = stopFor(RunSpec(w));
        ASSERT_NE(stop, 0u);
        for (EngineMode mode : kAllModes) {
            const RunSpec same =
                RunSpec(w).in(mode).stoppedAt(stop, Resume::Restore);
            const EngineMode other = mode == EngineMode::Spin
                                         ? EngineMode::Skip
                                         : EngineMode::Spin;
            for (const RunSpec &r : {same, same.resumedIn(other, false)})
                EXPECT_EQ(check(r).resumedAt, stop) << r.name();
        }
    }
}

TEST(SnapshotResume, RestoreRewindsAMachinePastTheSnapshot)
{
    // Restore into a machine whose clock already ran past the
    // snapshot cycle (here: to completion). Everything it did after
    // the snapshot must vanish — occupancy included, which has to be
    // credited again from the restored clock rather than from where
    // the used machine left off.
    for (EngineMode mode : kAllModes) {
        const RunSpec r = RunSpec(Workload::MatUpdate).in(mode);
        const RunSpec rewound = r.stoppedAt(stopFor(r), Resume::Rewind);
        EXPECT_EQ(check(rewound).resumedAt, rewound.stopAt)
            << rewound.name();
    }
}

TEST(SnapshotResume, SurvivesFileRoundTripUnderFaults)
{
    // Active fault injection (flips being corrected, hangs being
    // recovered, RNG streams mid-draw) checkpointed to disk and
    // resumed in a fresh machine, for both workload shapes.
    for (Workload w : {Workload::MatUpdate, Workload::Lu}) {
        const RunSpec r = RunSpec(w, Plan::Corrected).in(EngineMode::Skip);
        check(r.stoppedAt(stopFor(r), Resume::File));
    }
}

TEST(SnapshotResume, TraceStreamSplitsExactly)
{
    // The uninterrupted trace equals the pre-snapshot prefix plus the
    // suffix a restored machine emits: no lost, duplicated or
    // reordered events across the checkpoint boundary.
    const RunSpec r =
        RunSpec(Workload::MatUpdate, Plan::Corrected).in(EngineMode::Skip)
            .withTrace();
    const RunOut &got = check(r.stoppedAt(stopFor(r), Resume::Restore));
    EXPECT_FALSE(got.events.empty());
}

TEST(SnapshotResume, WrongConfigurationIsRejected)
{
    const CoprocConfig cfg =
        config(RunSpec(Workload::MatUpdate).in(EngineMode::Skip));
    snap::Snapshot snap;
    {
        Machine a = build(cfg, Workload::MatUpdate);
        a.sys->runUntil(500);
        snap = a.sys->takeSnapshot();
    }

    // A machine with a different timing-relevant configuration must
    // refuse the snapshot up front (fingerprint check)...
    CoprocConfig narrow = cfg;
    narrow.cells = 2;
    Coprocessor other(narrow);
    kernels::installStandardKernels(other);
    EXPECT_THROW(other.restoreSnapshot(snap), SnapshotError);

    // ...while engine-mode / fast-tier toggles are byte-identical by
    // contract and deliberately excluded from the fingerprint.
    CoprocConfig toggled = cfg;
    toggled.engineMode = EngineMode::Spin;
    toggled.fastTier = false;
    EXPECT_EQ(Coprocessor(toggled).configFingerprint(),
              Coprocessor(cfg).configFingerprint());
    EXPECT_NE(Coprocessor(narrow).configFingerprint(),
              Coprocessor(cfg).configFingerprint());
}

// ---------------------------------------------------------------------
// Serve layer: crash-durable restart and shard migration
// ---------------------------------------------------------------------

namespace
{

serve::ServeConfig
serveConfig()
{
    serve::ServeConfig cfg;
    cfg.shards = 2;
    cfg.shard.cells = 2;
    cfg.shard.tf = 512;
    cfg.shard.memoryWords = 1 << 20;
    cfg.sched.batchMax = 2;
    return cfg;
}

std::vector<serve::JobRequest>
serveWorkload(unsigned njobs)
{
    std::vector<serve::JobRequest> reqs;
    for (unsigned i = 0; i < njobs; ++i) {
        serve::JobRequest r;
        r.seed = 1000 + 7 * i;
        r.tenant = i % 3;
        r.arrival = 500 * i;
        switch (i % 3) {
          case 0:
            r.kind = serve::KernelKind::Gemm;
            r.m = r.k = r.n = 12;
            break;
          case 1:
            r.kind = serve::KernelKind::Lu;
            r.n = 12;
            break;
          default:
            r.kind = serve::KernelKind::Conv2d;
            r.n = 10;
            r.m = 12;
            r.p = r.q = 3;
            break;
        }
        reqs.push_back(r);
    }
    return reqs;
}

struct Delivered
{
    serve::JobStatus status;
    std::uint64_t checksum;
    bool correct;
};

std::vector<Delivered>
byTicket(const serve::Server &srv, std::size_t n)
{
    std::vector<Delivered> out(n, Delivered{});
    std::vector<unsigned> seen(n, 0);
    for (const serve::JobResult &r : srv.results()) {
        EXPECT_GE(r.ticket, 1u);
        EXPECT_LE(r.ticket, n);
        ++seen[r.ticket - 1];
        out[r.ticket - 1] =
            Delivered{r.status, r.checksum, r.correct};
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(seen[i], 1u) << "ticket " << i + 1
                               << " delivered " << seen[i] << " times";
    return out;
}

} // anonymous namespace

TEST(ServeDurability, CrashedServerResumesExactlyOnce)
{
    const unsigned njobs = 9;
    std::vector<serve::JobRequest> reqs = serveWorkload(njobs);

    // Reference: the same workload on an undisturbed server.
    serve::Server ref(serveConfig());
    std::vector<std::future<serve::JobResult>> refFuts;
    for (const auto &r : reqs)
        refFuts.push_back(ref.submit(r));
    ref.drain();
    std::vector<Delivered> want = byTicket(ref, njobs);

    // Crash after the 3rd delivery, with journal + checkpoints on
    // disk; restart over the same directory and re-submit.
    const std::string dir = tmpPath("serve_crash");
    std::remove((dir + "/journal.log").c_str());
    serve::ServeConfig cfg = serveConfig();
    cfg.checkpointDir = dir;
    cfg.crashAfterDeliveries = 3;
    auto srv = std::make_unique<serve::Server>(cfg);
    for (const auto &r : reqs)
        (void)srv->submit(r);
    bool crashed = false;
    try {
        srv->drain();
    } catch (const Error &) {
        crashed = true;
    }
    ASSERT_TRUE(crashed);
    srv.reset();

    serve::ServeConfig rcfg = serveConfig();
    rcfg.checkpointDir = dir;
    rcfg.resume = true;
    serve::Server resumed(rcfg);
    std::vector<std::future<serve::JobResult>> futs;
    for (const auto &r : reqs)
        futs.push_back(resumed.submit(r));
    resumed.drain();

    // Every job delivered exactly once, every completion correct, and
    // the per-ticket outcome — including the bit-exact output
    // checksum — matches the undisturbed server.
    std::vector<Delivered> got = byTicket(resumed, njobs);
    for (unsigned i = 0; i < njobs; ++i) {
        EXPECT_EQ(int(want[i].status), int(got[i].status))
            << "ticket " << i + 1;
        EXPECT_EQ(want[i].checksum, got[i].checksum)
            << "ticket " << i + 1;
        EXPECT_EQ(want[i].correct, got[i].correct)
            << "ticket " << i + 1;
        EXPECT_TRUE(futs[i].get().ticket == i + 1);
    }
}

TEST(ServeDurability, MigratedShardIsByteIdentical)
{
    const unsigned njobs = 6;
    std::vector<serve::JobRequest> reqs = serveWorkload(njobs);

    auto run = [&reqs](bool migrate) {
        serve::Server srv(serveConfig());
        // First wave, then (optionally) live-migrate both shards onto
        // fresh machines, then a second wave on the replacements.
        for (unsigned i = 0; i < njobs / 2; ++i)
            (void)srv.submit(reqs[i]);
        srv.drain();
        if (migrate) {
            srv.migrateShard(0);
            srv.migrateShard(1);
        }
        for (unsigned i = njobs / 2; i < njobs; ++i)
            (void)srv.submit(reqs[i]);
        srv.drain();
        std::vector<Delivered> out = byTicket(srv, njobs);
        for (const auto &d : out)
            EXPECT_EQ(int(d.status),
                      int(serve::JobStatus::Completed));
        return out;
    };

    std::vector<Delivered> plain = run(false);
    std::vector<Delivered> moved = run(true);
    ASSERT_EQ(plain.size(), moved.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].checksum, moved[i].checksum)
            << "ticket " << i + 1;
        EXPECT_TRUE(moved[i].correct) << "ticket " << i + 1;
    }
}
