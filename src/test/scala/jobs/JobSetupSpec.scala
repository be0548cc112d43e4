package jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.world.{CorpusConfig, WorldConfig}

class JobSetupSpec extends AnyFunSuite {
  test("configs maps test and bench to their world and corpus configurations") {
    assert(JobSetup.configs("test").contains((WorldConfig.test(), CorpusConfig.test())))
    assert(JobSetup.configs("bench").contains((WorldConfig.bench(), CorpusConfig.bench())))
  }

  test("configs rejects an unknown scale") {
    assert(JobSetup.configs("bnech").isEmpty)
    assert(JobSetup.configs("").isEmpty)
  }
}
