#include "baseline/warp.hh"

#include "common/logging.hh"
#include "isa/builder.hh"

namespace opac::baseline
{

using namespace isa;
using host::Region;

WarpArray::WarpArray(const WarpConfig &cfg)
    : cfg(cfg), statRoot("warp"), mem(cfg.memoryWords),
      eng(cfg.watchdogCycles)
{
    opac_assert(cfg.cells >= 1 && cfg.cells <= 32,
                "cell count %u out of range", cfg.cells);
    std::vector<cell::Cell *> raw;
    for (unsigned i = 0; i < cfg.cells; ++i) {
        cellPtrs.push_back(std::make_unique<cell::Cell>(
            strfmt("wcell%u", i), cfg.cell, &statRoot));
        raw.push_back(cellPtrs.back().get());
    }
    hostPtr = std::make_unique<host::Host>("host", cfg.host, mem, raw,
                                           &statRoot);
    // Interface-queue mutations on either side must wake a sleeping
    // host or cell first (the skip engine's wake-before-mutation rule).
    for (auto &c : cellPtrs)
        c->setBusWakeNeighbor(hostPtr.get());
    eng.add(hostPtr.get());
    for (unsigned i = 0; i + 1 < cfg.cells; ++i) {
        links.push_back(std::make_unique<ChainLink>(
            strfmt("link%u", i), cellPtrs[i]->tpo(),
            cellPtrs[i + 1]->tpx()));
    }
    for (auto &c : cellPtrs)
        eng.add(c.get());
    for (auto &l : links)
        eng.add(l.get());
}

void
WarpArray::loadMicrocode(Word entry, const isa::Program &prog,
                         unsigned nparams)
{
    for (auto &c : cellPtrs)
        c->loadMicrocode(entry, prog, nparams);
}

Cycle
WarpArray::run(Cycle max_cycles)
{
    return eng.run(max_cycles);
}

isa::Program
buildWarpMatUpdate()
{
    ProgramBuilder b("warp_matupdate");
    // Tile streams in.
    b.loopParam(3, [&] { b.mov(Src::TpX, DstSum); });
    // This cell's rank-1 updates.
    b.loopParam(0, [&] {
        b.loopParam(1, [&] { b.mov(Src::TpX, DstReby); });
        b.loopParam(2, [&] {
            b.mov(Src::TpX, DstRegAy);
            b.loopParam(1, [&] {
                b.fma(Src::RebyR, Src::RegAy, Src::Sum, DstSum);
            });
        });
        b.resetFifo(LocalFifo::Reby);
    });
    // Tile streams out, then the operands downstream cells need.
    b.loopParam(3, [&] { b.mov(Src::Sum, DstTpO); });
    b.loopParam(4, [&] { b.mov(Src::TpX, DstTpO); });
    return b.finish();
}

double
planWarpMatUpdateStream(WarpArray &warp, std::size_t n,
                        std::size_t k_total, std::size_t tiles,
                        std::size_t c_base, std::size_t a_base,
                        std::size_t b_base)
{
    const unsigned p = warp.numCells();
    opac_assert(n * n <= warp.config().cell.tf,
                "warp tile %zu^2 exceeds a single cell's Tf", n);
    host::Host &h = warp.host();

    // K-range per cell.
    std::vector<std::size_t> k0(p + 1, 0);
    for (unsigned cc = 0; cc < p; ++cc)
        k0[cc + 1] = k0[cc] + k_total / p + (cc < k_total % p ? 1 : 0);

    const std::size_t tile_words = n * n;
    const std::size_t per_k = 2 * n; // B column + C row

    // Keep up to R tiles in flight so the chain pipeline fills; R is
    // bounded by what the last cell's tpo can buffer (deadlock-free by
    // construction: at most R results are ever outstanding).
    const std::size_t if_depth = warp.config().cell.interfaceDepth;
    std::size_t r = std::max<std::size_t>(
        1, std::min<std::size_t>(p + 1, if_depth / tile_words));

    auto emit_recv = [&](std::size_t t) {
        h.enqueue(host::recvOp(
            p - 1, Region::vec(c_base + t * tile_words, tile_words)));
    };

    for (std::size_t t = 0; t < tiles; ++t) {
        // Calls, one per cell, just ahead of this tile's data.
        for (unsigned cc = 0; cc < p; ++cc) {
            std::size_t kmine = k0[cc + 1] - k0[cc];
            std::size_t kdown = k_total - k0[cc + 1];
            h.enqueue(host::callOp(
                1u << cc, warpMatUpdateEntry,
                {std::int32_t(kmine), std::int32_t(n), std::int32_t(n),
                 std::int32_t(tile_words),
                 std::int32_t(kdown * per_k)}));
        }
        // Tile, then per-k operand bundles, all into cell 0.
        std::size_t c_t = c_base + t * tile_words;
        std::size_t a_t = a_base + t * n * k_total;
        std::size_t b_t = b_base + t * n * k_total;
        h.enqueue(host::sendOp(1u, Region::vec(c_t, tile_words)));
        for (std::size_t kk = 0; kk < k_total; ++kk) {
            h.enqueue(host::sendOp(1u, Region::vec(a_t + kk * n, n)));
            h.enqueue(host::sendOp(
                1u, Region::strided(b_t + kk, n, k_total)));
        }
        if (t + 1 >= r)
            emit_recv(t + 1 - r);
    }
    for (std::size_t t = tiles >= r ? tiles - r + 1 : 0; t < tiles; ++t)
        emit_recv(t);
    return double(tiles) * double(n) * double(n) * double(k_total);
}

} // namespace opac::baseline
