/**
 * @file
 * Unified energy constants.
 *
 * The absolute picojoule numbers are calibrated so the *ratios* match the
 * paper's measurements (Sec. V): random DRAM : streaming DRAM = 3 : 1 per
 * byte and random DRAM : SRAM = 25 : 1 per byte; wireless transfer costs
 * 100 nJ/B at 10 MB/s. Every result in the paper is reported relative to
 * a baseline, so these ratios are what determine the reproduction.
 */

#ifndef CICERO_MEMORY_ENERGY_MODEL_HH
#define CICERO_MEMORY_ENERGY_MODEL_HH

namespace cicero {

/**
 * Energy unit constants, all in picojoules unless noted. An engine's
 * busy power is in its own config (GpuConfig, NpuConfig::activePowerW).
 */
struct EnergyConstants
{
    double sramPjPerByte = 4.0;
    double dramStreamPjPerByte = 33.3;
    double dramRandomPjPerByte = 100.0;
    double macPj = 0.6;            //!< one 16-bit MAC at ~12 nm
    double aluOpPj = 0.4;          //!< scalar ALU op (interp., indexing)
    double wirelessNjPerByte = 100.0;
    double wirelessMBps = 10.0;
    double socStaticW = 1.5;       //!< SoC-wide static power floor

    /** Energy of @p bytes of SRAM traffic, in nJ. */
    double sramNj(double bytes) const { return bytes * sramPjPerByte * 1e-3; }

    /** Energy of streaming plus random DRAM bytes, in nJ. */
    double
    dramNj(double streamBytes, double randomBytes) const
    {
        return streamBytes * dramStreamPjPerByte * 1e-3 +
               randomBytes * dramRandomPjPerByte * 1e-3;
    }
};

} // namespace cicero

#endif // CICERO_MEMORY_ENERGY_MODEL_HH
