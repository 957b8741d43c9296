package repro.perfbench

import java.security.MessageDigest
import repro.core.ExpResult
import scala.util.hashing.MurmurHash3

/** Hashes of a cell's simulated (virtual-time) outputs. Two runs of the same
  * code and input give the same hashes, so a changed hash between commits
  * means the simulated behaviour changed.
  */
object Fingerprint {

  private def sha(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8"))
      .take(8).map(b => f"${b & 0xff}%02x").mkString

  /** Every field of [[ExpResult]] but its config, by name. */
  def of(res: ExpResult): String =
    sha(res.productElementNames.zip(res.productIterator).drop(1)
      .map { case (k, v) => s"$k=$v" }.mkString(";"))

  /** An MST rate found. */
  def ofRate(rate: Double): String = sha(java.lang.Double.toString(rate))

  /** Order-independent hash of a merged sink digest, with its size. */
  def ofDigest(d: Map[Any, Long]): String =
    f"${d.size}%d:${MurmurHash3.unorderedHash(d)}%08x"
}
