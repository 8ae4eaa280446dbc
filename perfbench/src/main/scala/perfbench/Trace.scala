package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

/** One timed call into a layer. Times are wall-clock milliseconds (the clock
  * Spark stamps job events with) with a nanosecond-resolution fraction.
  */
final case class Span(id: Int, name: String, explainId: Int, parent: Option[Int],
                      startMs: Double, endMs: Double) {
  def seconds: Double = (endMs - startMs) / 1000.0
}

/** Spans kept in memory and written out when the benchmark ends. */
final class Tracer {
  private val ids   = new AtomicInteger()
  private val spans = new ConcurrentLinkedQueue[Span]()
  private val epochMs = System.currentTimeMillis().toDouble
  private val epochNs = System.nanoTime()

  def nowMs: Double = epochMs + (System.nanoTime() - epochNs) / 1e6

  /** Run `f` inside a span; returns its value and the span. */
  def span[T](name: String, explainId: Int, parent: Option[Int])(f: Int => T): (T, Span) = {
    val id = ids.incrementAndGet()
    val start = nowMs
    val v = f(id)
    val s = Span(id, name, explainId, parent, start, nowMs)
    spans.add(s)
    (v, s)
  }

  def all: Seq[Span] = spans.asScala.toSeq.sortBy(_.id)
}

object Trace {

  /** Total length of the union of `intervals` (start, end) clipped to [lo, hi]. */
  def covered(intervals: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0.0; var curA = Double.NaN; var curB = Double.NaN
    clipped.foreach { case (a, b) =>
      if (curB.isNaN || a > curB) {
        if (!curB.isNaN) total += curB - curA
        curA = a; curB = b
      } else if (b > curB) curB = b
    }
    if (!curB.isNaN) total += curB - curA
    total
  }

  /** A span's duration minus the part of it that its children cover, in the
    * span's own unit (milliseconds).
    */
  def selfMs(span: Span, all: Seq[Span]): Double = {
    val children = all.filter(_.parent.contains(span.id)).map(c => (c.startMs, c.endMs))
    (span.endMs - span.startMs) - covered(children, span.startMs, span.endMs)
  }
}
