package repro.nexmark

/** `java.util.Random` with its 48-bit seed in a plain field instead of an
  * `AtomicLong`, for generators that only one thread ever uses.
  *
  * The JDK specifies `Random`'s linear congruential generator as part of
  * its contract and routes `nextInt`, `nextInt(bound)`, `nextLong`,
  * `nextDouble` and the rest through `protected next(bits)`. Overriding
  * `next` alone with the same recurrence therefore yields the same
  * sequence, bit for bit, without a compare-and-set per draw. `setSeed`
  * keeps the field in step with the superclass.
  */
final class PlainRandom(seed: Long) extends java.util.Random(seed) {
  import PlainRandom._

  private[this] var state: Long = scramble(seed)

  override def setSeed(seed: Long): Unit = {
    super.setSeed(seed)
    state = scramble(seed)
  }

  override protected def next(bits: Int): Int = {
    state = (state * Multiplier + Addend) & Mask
    (state >>> (48 - bits)).toInt
  }
}

object PlainRandom {
  private val Multiplier = 0x5DEECE66DL
  private val Addend     = 0xBL
  private val Mask       = (1L << 48) - 1

  private def scramble(seed: Long): Long = (seed ^ Multiplier) & Mask

  /** A `scala.util.Random` that draws exactly what `new scala.util.Random(seed)` does. */
  def apply(seed: Long): scala.util.Random = new scala.util.Random(new PlainRandom(seed))
}
