/**
 * @file
 * Helpers for pinning FIFO occupancy statistics in golden tests: pull
 * the {min,max,mean,count} objects of every cell's local queues out of
 * a stats JSON dump and reduce them to a digest plus a readable total
 * sample count.
 */

#ifndef OPAC_TESTS_OCCUPANCY_PIN_HH
#define OPAC_TESTS_OCCUPANCY_PIN_HH

#include <cstdint>
#include <string>

namespace opac::test
{

/** The `"<name>": {...}` object of a stats JSON dump ("" if absent). */
inline std::string
jsonObject(const std::string &json, const std::string &name)
{
    const std::size_t at = json.find("\"" + name + "\": {");
    if (at == std::string::npos)
        return "";
    return json.substr(at, json.find('}', at) - at + 1);
}

/** What a golden test pins about the local-queue occupancies. */
struct OccupancyPin
{
    std::uint64_t digest = 0;  //!< FNV-1a 64 of the concatenated objects
    std::uint64_t samples = 0; //!< summed "count" fields
    std::string objects;       //!< the objects themselves (diagnostics)
};

/**
 * The sum/ret/reby occupancy objects of cells 0 .. @p cells - 1 of a
 * coprocessor stats dump (`system.cell<i>.<queue>.occupancy`).
 */
inline OccupancyPin
localOccupancy(const std::string &json, unsigned cells)
{
    OccupancyPin pin;
    for (unsigned c = 0; c < cells; ++c) {
        for (const char *q : {"sum", "ret", "reby"}) {
            const std::string obj = jsonObject(
                json, "system.cell" + std::to_string(c) + "." + q
                          + ".occupancy");
            const std::size_t n = obj.find("\"count\": ");
            if (n != std::string::npos)
                pin.samples += std::stoull(obj.substr(n + 9));
            pin.objects += obj + "\n";
        }
    }
    pin.digest = 14695981039346656037ull;
    for (unsigned char ch : pin.objects)
        pin.digest = (pin.digest ^ ch) * 1099511628211ull;
    return pin;
}

} // namespace opac::test

#endif // OPAC_TESTS_OCCUPANCY_PIN_HH
