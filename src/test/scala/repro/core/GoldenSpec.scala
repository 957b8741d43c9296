package repro.core

import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.SimTestKit
import repro.dataflow.Runtime
import repro.queries._

/** Bit-identity guard for the simulator. Every cell of a small fixed grid
  * (each NexMark query under each protocol, plus the cyclic query under
  * UNC and CIC, at 3 workers with one failure) is hashed over every
  * [[ExpResult]] field but its config, together with its merged sink
  * digest. The expected hashes are literals: a change that alters any
  * virtual-time output or answer of any cell fails here, so refactors and
  * performance work can prove they kept behaviour unchanged. A change that
  * is meant to alter behaviour must say so and update the literals.
  */
class GoldenSpec extends AnyFunSuite {
  import GoldenSpec._

  for ((q, p) <- cells) {
    val label = s"${q.name}/$p"
    test(s"$label outputs are bit-identical to the recorded golden hash") {
      val (rt, res) = runCell(q, p)
      val text = describe(res, q.sinkDigest(rt))
      assert(hash(text) == Expected(label),
        s"$label changed; its outputs are now: ${text.take(600)}")
    }
  }
}

object GoldenSpec {
  private val reach = Reachability(ReachConfig(nNodes = 3000L, ratePerSec = 0, durationMicros = 0))

  /** The grid: every NexMark query under every protocol, and the cyclic
    * query under UNC and CIC.
    */
  val cells: Seq[(QueryDef, String)] =
    (for (q <- Seq(Q1, Q3, Q8(), Q12()); p <- Seq("COOR", "UNC", "CIC")) yield q -> p) ++
      Seq(reach -> "UNC", reach -> "CIC")

  /** One cell's run: 3 workers, input over 8 s, a failure at 5 s. */
  def runCell(q: QueryDef, p: String): (Runtime, ExpResult) =
    SimTestKit.run(q, p, 3, rate = 150.0, horizonMicros = 8_000_000L, failAt = Some(5_000_000L))

  /** Every field of `res` but its config, then the sorted sink digest. */
  def describe(res: ExpResult, digest: Map[Any, Long]): String = {
    val fields = res.productElementNames.zip(res.productIterator).drop(1)
      .map { case (k, v) => s"$k=$v" }.mkString(";")
    val sink = digest.toSeq.map { case (k, v) => s"$k->$v" }.sorted.mkString(",")
    s"$fields|sink(${digest.size})=$sink"
  }

  def hash(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8"))
      .take(8).map(b => f"${b & 0xff}%02x").mkString

  /** Hash of every cell, by label. */
  val Expected: Map[String, String] = Map(
    "Q1/COOR" -> "6470d87c8161b135", "Q1/UNC" -> "16a863bdd933dd85", "Q1/CIC" -> "7577ebe7a8a3edbd",
    "Q3/COOR" -> "8c80a2f6c432a3b8", "Q3/UNC" -> "a6d9adbb4e2f3f8c", "Q3/CIC" -> "2e2f5af0bf636ea7",
    "Q8/COOR" -> "cbe3538d7e836be6", "Q8/UNC" -> "1889fbb0461acdf7", "Q8/CIC" -> "3b9b465b3ca005f1",
    "Q12/COOR" -> "d527df7aaf1c17a1", "Q12/UNC" -> "78cd924a277da2bd",
    "Q12/CIC" -> "6611d5006395c13a",
    "REACH/UNC" -> "5a57163d7c69216a", "REACH/CIC" -> "b68a19b6c35f85b8",
  )
}
