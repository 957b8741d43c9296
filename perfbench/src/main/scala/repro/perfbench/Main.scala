package repro.perfbench

import java.io.{File, PrintWriter}

/** Entry point of one benchmark JVM. `perfbench/run.py` builds the
  * classpath, launches this and turns its last stdout line, a JSON object
  * of per-pass samples and per-cell verdicts, into the benchmark's result.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
  * }}}
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = Workloads.byName(opts.getOrElse("workload", "")).getOrElse {
      System.err.println(s"unknown workload; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    println(run(workload.runner(opts("seed").toLong), opts("seconds").toDouble,
      opts.get("trace").contains("1"), opts.get("spans").map(new File(_))))
  }

  private def passJson(p: Pass): Json.Raw = Json.Raw(Json.obj(p.metrics.toSeq.sortBy(_._1): _*))

  private def cellJson(o: CellOutcome): Json.Raw = Json.Raw(Json.obj("cell" -> o.label,
    "fingerprint" -> o.fingerprint, "digest" -> o.digest, "failure" -> o.failure.orNull))

  def run(runner: Runner, seconds: Double, trace: Boolean, spansFile: Option[File]): String = {
    runner.prepare()
    val passes = Seq.newBuilder[Pass]
    val traced = Seq.newBuilder[Pass]
    // Passes run until the next one would end past the time budget.
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var i = 0
    var last = 0L
    while (i == 0 || System.nanoTime() + last < deadline) {
      val t0 = System.nanoTime()
      passes += runner.pass(traced = false, i)
      if (trace) traced += runner.pass(traced = true, i)
      last = System.nanoTime() - t0
      i += 1
    }
    spansFile.foreach(f => writeSpans(f, runner.spans))
    Json.obj(
      "passes" -> passes.result().map(passJson),
      "traced_passes" -> traced.result().map(passJson),
      "cells" -> runner.finish().map(cellJson))
  }

  /** One JSON object per line; times in ns relative to the first span. */
  private def writeSpans(f: File, spans: Seq[(Int, Span)]): Unit = {
    val t0 = if (spans.isEmpty) 0L else spans.map(_._2.startNanos).min
    val w = new PrintWriter(f, "UTF-8")
    try spans.foreach { case (pass, s) =>
      w.println(Json.obj("pass" -> pass, "name" -> s.name, "cell" -> s.cell,
        "parent" -> s.parent, "start_ns" -> (s.startNanos - t0), "end_ns" -> (s.endNanos - t0)))
    } finally w.close()
  }
}

/** Just enough JSON writing for the benchmark's output. */
object Json {
  /** A value that is already JSON text. */
  final case class Raw(json: String)

  def obj(kvs: (String, Any)*): String =
    kvs.map { case (k, v) => s"${str(k)}:${value(v)}" }.mkString("{", ",", "}")

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  private def value(v: Any): String = v match {
    case null                   => "null"
    case Raw(json)              => json
    case s: String              => str(s)
    case b: Boolean             => b.toString
    case d: Double              => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case xs: Seq[_]             => xs.map(value).mkString("[", ",", "]")
    case other                  => str(other.toString)
  }
}
